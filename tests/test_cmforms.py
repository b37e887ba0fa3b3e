"""Newform coefficients: printed tables, twist identities, curve oracles."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from stmotives import cmforms as cf
from stmotives.ntkernel import (EisenInt, NotSplitError, degree_one_primes, primes_up_to,
                                split_prime_qi, split_prime_qomega, QI, QW)

from table_data import BP_576_3_QUARTIC, BP_576_4_QUARTIC, BP_576_4_SEXTIC


def load_coeffs(path: str) -> dict[int, int]:
    """Read and parse a coefficient file (UTF-8 text, '#' comments, 'p a_p' per
    line, primes ascending) through the package's memoized file table."""
    cf.file_digest(path)
    return dict(cf._FILE_TABLES[path][1])


def save_coeffs(path, table, header=""):
    """Write a coefficient file in the format load_coeffs reads."""
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for p in sorted(table):
            fh.write(f"{p} {table[p]}\n")


def test_psi_value_norms_and_conjugates():
    # psi(P) is the split generator normalized to 1 mod 3 resp. (1+i)^3
    for p in degree_one_primes(QW, 200):
        a = split_prime_qomega(p)
        assert a.norm() == p
        assert (a.a - 1) % 3 == 0 and a.b % 3 == 0
    for p in degree_one_primes(QI, 200):
        a = split_prime_qi(p)
        assert a.norm() == p


def test_forms_hold_every_documented_label_once():
    # the newform labels of the README's CLI section, each keyed by its own label
    labels = ("27.2a 32.2a 9.4a 32.4b 144.4d 108.4c 288.4d 16.3.3a 27.3.5a 11.2a 256.2b 36.2a "
              "5.4a 576.4.quartic 576.3.quartic 576.4.sextic").split()
    assert sorted(cf.FORMS) == sorted(labels)
    assert all(form.label == label for label, form in cf.FORMS.items())


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
        assert b * b - 2 * p == cf.coeff(cf.FORMS["27.3.5a"], p)
        assert b**3 - 3 * p * b == cf.coeff(cf.FORMS["9.4a"], p)
    for p in degree_one_primes(QI, 2000):
        b = cf.coeff(cf.FORMS["32.2a"], p)
        assert b * b - 2 * p == cf.coeff(cf.FORMS["16.3.3a"], p)
        assert b**3 - 3 * p * b == cf.coeff(cf.FORMS["32.4b"], p)


def test_inert_passthrough_is_zero_upstream():
    # the split-prime power relation would give b^2 - 2p = -14 at p = 7; an
    # inert prime gives 0 before it
    assert cf.coeff(cf.FORMS["16.3.3a"], 7) == 0
    assert cf.coeff(cf.FORMS["27.3.5a"], 5) == 0


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


_PRIMES_5_5000 = [p for p in primes_up_to(4999) if p >= 5]


@given(hst.booleans(), hst.integers(-10**4, 10**4).filter(bool), hst.sampled_from(_PRIMES_5_5000))
@settings(max_examples=300)
def test_cm_fast_path_vs_naive_count_random(j0, c, p):
    # y^2 = x^3 + B (j = 0) or y^2 = x^3 + A x (j = 1728)
    curve = cf.CurveSpec.short(0, c) if j0 else cf.CurveSpec.short(c, 0)
    assume(curve.discriminant() % p != 0)
    assert cf.ec_trace(curve, p) == cf.ec_trace_naive(curve, p)


def test_long_weierstrass_trace(monkeypatch):
    e11 = cf.FORMS["11.2a"].curve
    # 11.2a first coefficients: a2=-2, a3=-1, a5=1, a7=-2, a13=4
    known = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}
    for p, want in known.items():
        assert cf.ec_trace(e11, p) == want
    # mod 3 the short model of a long one is the cusp Y^2 = X^3, outside what
    # baby-step giant-step proves: a_2 and a_3 come from the point count alone
    monkeypatch.setattr(cf, "_bsgs_trace", None)
    assert cf.ec_trace(e11, 2) == -2 and cf.ec_trace(e11, 3) == -1


_GOOD_PRIMES_11 = [p for p in primes_up_to(2**14) if p != 11]


def _newform_11(n: int) -> np.ndarray:
    """a_1, ..., a_n of eta(z)^2 eta(11z)^2 = q prod (1 - q^k)^2 (1 - q^(11k))^2,
    the newform of 11.2a: Euler's pentagonal series for prod (1 - q^k), squared,
    times that square at q^11."""
    euler = np.zeros(n, dtype=np.int64)
    for k in range(-isqrt(n) - 1, isqrt(n) + 2):
        e = k * (3 * k - 1) // 2
        if e < n:
            euler[e] = -1 if k % 2 else 1
    square = np.convolve(euler, euler)[:n]
    at_11 = np.zeros(n, dtype=np.int64)
    at_11[::11] = square[:(n + 10) // 11]
    return np.convolve(square, at_11)[:n]


def test_ec_trace_equals_the_point_count_for_11_2a_to_2_14():
    # the q-expansion stands in for the point count, which it matches to 2^10
    curve, a = cf.FORMS["11.2a"].curve, _newform_11(2**14)
    assert [p for p in _GOOD_PRIMES_11 if cf.ec_trace(curve, p) != a[p - 1]] == []
    assert [p for p in _GOOD_PRIMES_11 if p < 2**10 and cf.ec_trace_naive(curve, p) != a[p - 1]] == []


def test_cm_family_is_read_off_the_short_model_of_any_model():
    # y^2 = x^3 - x moved to x + 1, and 27.2a's own model y^2 + y = x^3 - 7
    i_model, w_model = cf.CurveSpec(0, 3, 0, 2, 0), cf.CurveSpec(0, 0, 1, 0, -7)
    assert i_model.cm_family() == ("Q(i)", 1, 1296**3, None)
    assert w_model.cm_family() == ("Q(w)", 1, (-4 * 54 * 5832) ** 5, None)
    for p in primes_up_to(2**12):
        if w_model.discriminant() % p:
            assert cf.ec_trace(w_model, p) == cf.coeff(cf.FORMS["27.2a"], p), p
        for curve in (i_model, w_model):
            if p > 3 and curve.discriminant() % p:
                assert cf.ec_trace(curve, p) == cf.ec_trace_naive(curve, p), (curve, p)


_PRIMES_5_20000 = [p for p in primes_up_to(20000) if p > 3]


@given(hst.lists(hst.integers(-50, 50), min_size=5, max_size=5), hst.sampled_from(_PRIMES_5_20000))
@settings(max_examples=300)
def test_bsgs_trace_vs_naive_count_random(coeffs, p):
    try:
        curve = cf.CurveSpec(*coeffs)
    except ValueError:  # singular
        assume(False)
    assume(curve.discriminant() % p != 0)
    assert cf.ec_trace(curve, p) == cf.ec_trace_naive(curve, p)


def test_bsgs_trace_reaches_both_ends_of_the_hasse_interval():
    # y^2 = x^3 - x moved to x + 1, whose short model is scaled by 6; at p = a^2 + 4,
    # a odd, its trace is +-2a, and 4p = (2a)^2 + 16
    curve = cf.CurveSpec(0, 3, 0, 2, 0)
    traces = {p: cf._bsgs_trace(curve, p) for p in (293, 457, 641, 733, 977, 1093, 1373, 2029)}
    assert traces == {p: cf.ec_trace_naive(curve, p) for p in traces}
    assert all(abs(a) == isqrt(4 * p) for p, a in traces.items())
    assert {a > 0 for a in traces.values()} == {True, False}


def _bsgs_point(curve, p, x):
    """The point (x d, d^2) of _bsgs_trace and the A d^2 of its curve."""
    A, B = curve._short
    d = ((x * x + A) * x + B) % p
    return (x * d % p, d * d % p), A * d * d % p


def test_bsgs_trace_falls_back_to_the_point_count_after_its_points(monkeypatch):
    # at p = 347 the first point of 11.2a, x = 0, fits several traces
    curve, p = cf.FORMS["11.2a"].curve, 347
    assert len(cf._hasse_orders(*_bsgs_point(curve, p, 0), p)) > 1
    want, naive, count = cf.ec_trace_naive(curve, p), [], cf.ec_trace_naive
    monkeypatch.setattr(cf, "_BSGS_POINTS", 1)
    monkeypatch.setattr(cf, "ec_trace_naive", lambda c, q: naive.append(q) or count(c, q))
    assert cf.ec_trace(curve, p) == want and naive == [p]


def test_bsgs_trace_skips_a_point_of_order_at_most_2m():
    # m = 7 at both primes; baby steps jP, j <= m, meet a repeated x or y = 0
    # exactly when the order is at most 2m, and such a point's giant steps can
    # miss a multiple of its order: searched anyway, both traces came out wrong
    for coeffs, p, x, order in (((-5, 10, 14, -13, 8), 389, 2, 13), ((14, -8, 7, -22, 7), 617, 0, 14)):
        curve = cf.CurveSpec(*coeffs)
        P, A = _bsgs_point(curve, p, x)
        assert cf._ec_mul(order, P, A, p) is None and cf._hasse_orders(P, A, p) is None
        assert cf.ec_trace(curve, p) == cf.ec_trace_naive(curve, p)


def test_coeff_refuses_a_composite_the_splitter_used_to_split():
    # 1387 = 19 * 73 is 1 mod 3, and the root search's Fermat check let it
    # through: coeff(27.2a, 1387) was 65
    with pytest.raises(NotSplitError):
        cf.coeff(cf.FORMS["27.2a"], 1387)
    assert 1387 not in EisenInt._SPLITS


def test_bad_reduction_raises():
    with pytest.raises(cf.BadPrimeError):
        cf.ec_trace(cf.CurveSpec.short(0, 1), 3)
    with pytest.raises(cf.BadPrimeError):
        cf.coeff(cf.FORMS["27.2a"], 3)


def test_load_coeffs_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    table = {2: 1, 3: -2, 11: 7}
    save_coeffs(str(path), table, header="test table")
    assert load_coeffs(str(path)) == table


def test_load_coeffs_errors(tmp_path):
    bad1 = tmp_path / "bad1.txt"
    bad1.write_text("2 1\nthree -2\n")
    with pytest.raises(cf.CoeffFileError) as ei:
        load_coeffs(str(bad1))
    assert "bad1.txt:2" in str(ei.value)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("5 1\n3 2\n")
    with pytest.raises(cf.CoeffFileError):
        load_coeffs(str(bad2))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(cf.CoeffFileError):
        load_coeffs(str(empty))


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


def test_weil_bound_break_is_a_data_error_for_file_forms(tmp_path):
    # 4 p^3 = 500 < 1000^2 at p = 5
    path = tmp_path / "broken.txt"
    path.write_text("3 1\n5 1000\n")
    handle = cf.NewformHandle("broken", 4, 1, "file", path=str(path))
    assert cf.coeff(handle, 3) == 1
    with pytest.raises(cf.CoeffFileError, match="Weil bound"):
        cf.coeff(handle, 5)


def test_weil_bound_break_is_a_consistency_error_for_computed_forms(monkeypatch):
    from stmotives.records import ConsistencyError

    monkeypatch.setattr(cf, "_hecke_coeff", lambda *args: 10**6)
    with pytest.raises(ConsistencyError, match="Weil bound"):
        cf.coeff(cf.FORMS["27.2a"], 7)
    monkeypatch.setattr(cf, "ec_trace", lambda curve, p: 2 * p)
    with pytest.raises(ConsistencyError, match="Weil bound"):
        cf.coeff(cf.FORMS["11.2a"], 7)


def test_11_2a_file_vs_point_counts(tmp_path):
    # round-trip a generated coefficient file against the curve oracle
    curve = cf.FORMS["11.2a"].curve
    table = {p: cf.ec_trace(curve, p) for p in primes_up_to(3000) if p != 11}
    path = tmp_path / "11.2a.txt"
    save_coeffs(str(path), table)
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


@pytest.mark.parametrize("kind,fields,message", [
    ("curve", {}, "x: kind 'curve' needs its curve field"),
    ("hecke", {}, "x: kind 'hecke' needs its hecke field"),
    ("file", {"curve": cf.CurveSpec.short(0, 1)}, "x: kind 'file' needs its path field"),
    ("weird", {"curve": cf.CurveSpec.short(0, 1)}, "x: unknown kind 'weird'"),
    ("hecke", {"hecke": ("Q(x)", 1, None, None)}, "x: unknown CM field"),
], ids=["curve", "hecke", "file", "unknown-kind", "hecke-field"])
def test_newform_handle_rejects_what_coeff_cannot_evaluate(kind, fields, message):
    # these used to construct, and their first coeff ended in an AttributeError,
    # a TypeError or a bare ValueError('weird') (or 'Q(x)' at its first split prime)
    with pytest.raises(ValueError, match="^" + message):
        cf.NewformHandle("x", 2, 11, kind, **fields)


def test_curve_spec_refuses_a_singular_model():
    # each used to build, and a stream over it skipped every prime (Delta = 0 at
    # each) and came back empty without a word
    for build, args, tag in ((cf.CurveSpec.short, (0, 0), "[0,0,0,0,0]"),
                             (cf.CurveSpec.short, (-3, 2), "[0,0,0,-3,2]"),
                             (cf.CurveSpec, (0, 0, 0, 0, 0), "[0,0,0,0,0]")):
        with pytest.raises(ValueError) as info:
            build(*args)
        assert str(info.value) == f"{tag} is a singular curve (discriminant 0)"


@pytest.mark.parametrize("value,shown", [(1.5, "1.5"), ("1", "'1'"), (None, "None")],
                         ids=["float", "str", "none"])
def test_curve_spec_refuses_a_coefficient_that_is_not_an_integer(value, shown):
    # a float used to build and fail at its first trace with a TypeError from a
    # bytearray index, and a str with a TypeError from the discriminant
    with pytest.raises(ValueError) as info:
        cf.CurveSpec(0, 0, 0, value, 2)
    assert str(info.value).endswith(f"has a non-integer coefficient a4 = {shown}")
    assert str(info.value).startswith("[0,0,0,")


def test_curve_spec_stores_a_bool_coefficient_as_an_int():
    # [0,0,0,True,1] equalled [0,0,0,1,1] but printed apart, so one symcube
    # had two cache keys
    from stmotives import motives as mv

    e, one = cf.CurveSpec(0, 0, 0, True, 1), cf.CurveSpec(0, 0, 0, 1, 1)
    assert type(e.a4) is int and str(e) == "[0,0,0,1,1]" == str(one)
    specs = [mv.MotiveSpec(mv.SymCube(c), mv.Q) for c in (e, one)]
    assert specs[0].describe() == specs[1].describe() and specs[0].spec_hash() == specs[1].spec_hash()


def test_discriminant_is_computed_once_per_curve():
    e = cf.CurveSpec(0, -1, 1, -10, -20)  # 11a1: discriminant -11^5
    assert e.discriminant() == -(11**5) == e.discriminant()
    assert vars(e)["_discriminant"] == -(11**5)  # kept on the object for every later row
    assert cf.CurveSpec.short(-2, 0).discriminant() == 512 and e == cf.CurveSpec(0, -1, 1, -10, -20)


def test_cm_family_is_computed_once_per_curve():
    e = cf.CurveSpec.short(0, 4)
    assert e.cm_family() == ("Q(w)", 1, 16**5, None) and e.cm_family() is e.cm_family()
    assert vars(e)["_cm_family"] == ("Q(w)", 1, 16**5, None)
    assert cf.CurveSpec.short(-1, 0).cm_family() == ("Q(i)", 1, 1, None)
    assert cf.FORMS["11.2a"].curve.cm_family() is None
