"""Newform coefficients: printed tables, twist identities, curve oracles."""

import pytest

from stmotives import cmforms as cf
from stmotives.ntkernel import degree_one_primes, primes_up_to, QI, QW

from table_data import BP_576_3_QUARTIC, BP_576_4_QUARTIC, BP_576_4_SEXTIC


def test_psi_value_norms_and_conjugates():
    for p in degree_one_primes(QW, 200):
        a = cf.psi_value("Q(w)", p)
        assert a.norm() == p
        assert (a.a - 1) % 3 == 0 and a.b % 3 == 0
    for p in degree_one_primes(QI, 200):
        a = cf.psi_value("Q(i)", p)
        assert a.norm() == p


def test_psi_weight2_weil_bound():
    for p in degree_one_primes(QW, 500):
        b = cf.coeff(cf.FORMS["27.2a"], p)
        assert b * b <= 4 * p


@pytest.mark.parametrize("label,table", [
    ("576.4.quartic", BP_576_4_QUARTIC),
    ("576.3.quartic", BP_576_3_QUARTIC),
    ("576.4.sextic", BP_576_4_SEXTIC),
])
def test_printed_coefficient_tables(label, table):
    form = cf.FORMS[label]
    for p, want in table.items():
        assert cf.coeff(form, p) == want, (label, p)


def test_quartic_twist_chi_identity():
    # twisting the 3-symbol form by the mod-24 character gives the
    # (-3)-symbol form, coefficient by coefficient
    f1 = cf.FORMS["576.4.quartic"]
    f2 = cf.FORMS["288.4d"]
    for p in degree_one_primes(QI, 97):
        if not (f1.is_good(p) and f2.is_good(p)):
            continue
        assert cf.coeff(f1, p) * cf.CHI24_A(p) == cf.coeff(f2, p), p


def test_cm_vanishing_inert_primes():
    for p in (3, 7, 11, 19, 23):  # inert in Q(i)
        assert cf.coeff(cf.FORMS["32.4b"], p) == 0
    for p in (5, 11, 17, 23, 29):  # inert in Q(w)
        assert cf.coeff(cf.FORMS["9.4a"], p) == 0


def test_weight_power_relations_dual_path():
    # d_p = b_p^2 - 2p and e_p = b_p^3 - 3 p b_p vs direct psi^k traces
    for p in degree_one_primes(QW, 10**4):
        b = cf.coeff(cf.FORMS["27.2a"], p)
        assert cf.coeff_from_weight2(b, p, "weight3") == cf.coeff(cf.FORMS["27.3.5a"], p)
        assert cf.coeff_from_weight2(b, p, "weight4") == cf.coeff(cf.FORMS["9.4a"], p)
    for p in degree_one_primes(QI, 2000):
        b = cf.coeff(cf.FORMS["32.2a"], p)
        assert cf.coeff_from_weight2(b, p, "weight3") == cf.coeff(cf.FORMS["16.3.3a"], p)
        assert cf.coeff_from_weight2(b, p, "weight4") == cf.coeff(cf.FORMS["32.4b"], p)


def test_inert_passthrough_is_zero_upstream():
    assert cf.coeff_from_weight2(0, 7, "weight3") == -14  # caller handles inert as 0
    assert cf.coeff(cf.FORMS["16.3.3a"], 7) == 0


def test_dirichlet_values():
    assert cf.CHI24_A(7) == 1
    assert cf.CHI24_A(5) == -1
    assert cf.CHI24_B(5) == 1
    assert cf.CHI24_B(13) == -1
    assert cf.CHI4(3) == -1
    assert cf.CHI4(6) == 0


def test_ec_trace_examples():
    assert cf.ec_trace(cf.CurveSpec.short(0, 1), 7) == -4
    # CM by Q(i): inert primes give 0
    for p in (7, 11, 19, 23):
        assert cf.ec_trace(cf.CurveSpec.short(-1, 0), p) == 0


@pytest.mark.parametrize("curve", [
    cf.CurveSpec.short(0, 1),
    cf.CurveSpec.short(0, 4),
    cf.CurveSpec.short(0, -2),
    cf.CurveSpec.short(1, 0),
    cf.CurveSpec.short(-2, 0),
    cf.CurveSpec.short(3, 0),
])
def test_cm_fast_path_vs_naive_count(curve):
    for p in primes_up_to(2000):
        if curve.discriminant() % p == 0 or p < 5:
            continue
        assert cf.ec_trace(curve, p) == cf.ec_trace_naive(curve, p), (curve, p)


def test_long_weierstrass_trace():
    e11 = cf.FORMS["11.2a"].curve
    # 11.2a first coefficients: a2=-2, a3=-1, a5=1, a7=-2, a13=4
    known = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}
    for p, want in known.items():
        assert cf.ec_trace(e11, p) == want


def test_bad_reduction_raises():
    with pytest.raises(cf.BadPrimeError):
        cf.ec_trace(cf.CurveSpec.short(0, 1), 3)
    with pytest.raises(cf.BadPrimeError):
        cf.coeff(cf.FORMS["27.2a"], 3)


def test_load_coeffs_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    table = {2: 1, 3: -2, 11: 7}
    cf.save_coeffs(str(path), table, header="test table")
    assert cf.load_coeffs(str(path)) == table


def test_load_coeffs_errors(tmp_path):
    bad1 = tmp_path / "bad1.txt"
    bad1.write_text("2 1\nthree -2\n")
    with pytest.raises(cf.CoeffFileError) as ei:
        cf.load_coeffs(str(bad1))
    assert "bad1.txt:2" in str(ei.value)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("5 1\n3 2\n")
    with pytest.raises(cf.CoeffFileError):
        cf.load_coeffs(str(bad2))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(cf.CoeffFileError):
        cf.load_coeffs(str(empty))


def test_5_4a_fixture_plausible():
    form = cf.FORMS["5.4a"]
    known = {2: -4, 3: 2, 7: 6, 11: 32, 13: -38}
    for p, want in known.items():
        assert cf.coeff(form, p) == want
    for p in primes_up_to(500):
        if p == 5:
            continue
        b = cf.coeff(form, p)
        assert b * b <= 4 * p**3
    with pytest.raises(cf.BadPrimeError):
        cf.coeff(form, 5)


def test_file_form_missing_prime(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("2 1\n")
    handle = cf.NewformHandle("tiny", 4, 1, "file", path=str(path))
    assert cf.coeff(handle, 2) == 1
    with pytest.raises(cf.BadPrimeError):
        cf.coeff(handle, 3)


def test_11_2a_file_vs_point_counts(tmp_path):
    # round-trip a generated coefficient file against the curve oracle
    curve = cf.FORMS["11.2a"].curve
    table = {p: cf.ec_trace(curve, p) for p in primes_up_to(3000) if p != 11}
    path = tmp_path / "11.2a.txt"
    cf.save_coeffs(str(path), table)
    handle = cf.NewformHandle("11.2a-file", 2, 11, "file", path=str(path))
    for p in primes_up_to(3000):
        if p == 11:
            continue
        assert cf.coeff(handle, p) == cf.ec_trace(curve, p)


def test_nebentypus_parity_enforced():
    with pytest.raises(ValueError):
        cf.NewformHandle("x", 2, 1, "hecke", hecke=("Q(i)", 1, None, None),
                         nebentypus=cf.CHI4)
    with pytest.raises(ValueError):
        cf.NewformHandle("y", 3, 1, "hecke", hecke=("Q(i)", 2, None, None))
