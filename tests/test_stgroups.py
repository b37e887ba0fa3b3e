"""The 26-group catalog: exact tables, invariants, sampling oracle."""

from fractions import Fraction

import numpy as np
import pytest

from stmotives import stgroups as sg
from stmotives.laurent import expectation as lp_expectation, lp_pow, lp_term, CYC_ONE

from table_data import A1_MOMENTS, A2_MOMENTS, INVARIANTS

ALL_NAMES = [g.name for g in sg.catalog()]


def test_catalog_size_and_weights():
    cat = sg.catalog()
    assert len(cat) == 26
    assert [g.name for g in cat] == list(INVARIANTS)
    for g in cat:
        assert g.num_components == INVARIANTS[g.name][1]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a1_moment_table(name):
    got = tuple(sg.moment(name, "a1", n) for n in range(2, 17, 2))
    assert got == A1_MOMENTS[name]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a2_moment_table(name):
    got = tuple(sg.moment(name, "a2", n) for n in range(1, 10))
    assert got == A2_MOMENTS[name]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_invariants_table(name):
    d, c, z1, z2, lbl = sg.invariants(name)
    assert (d, c, z1, z2, lbl) == tuple(INVARIANTS[name])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_odd_a1_moments_vanish(name):
    for n in (1, 3, 5, 7, 9):
        assert sg.moment(name, "a1", n) == 0


def test_circle_and_su2_trace_moments():
    # E[(u + 1/u)^(2n)] = binom(2n, n); E[(v + 1/v)^(2n)] = binom(2n,n)/(n+1)
    from math import comb

    u = lp_term((1,), CYC_ONE)
    ui = lp_term((-1,), CYC_ONE)
    t = {**u, **ui}
    for n in range(0, 7):
        e_circle = lp_expectation(lp_pow(t, 2 * n, 1), ("circle",))
        e_su2 = lp_expectation(lp_pow(t, 2 * n, 1), ("su2",))
        assert e_circle == comb(2 * n, n)
        assert e_su2 == Fraction(comb(2 * n, n), n + 1)


def test_usp4_normalization_is_computed():
    from stmotives.laurent import _USP4_CT, usp4_joint_moment

    assert _USP4_CT == 8
    assert usp4_joint_moment(0, 0) == 1


def test_usp4_first_moments():
    assert sg.moment("USp(4)", "a1", 2) == 1
    assert sg.moment("USp(4)", "a2", 1) == 1


def test_j_component_signature():
    # every J-coset of J(C_n) has a1 = 0 and a2 = 2 identically
    for n in (1, 2, 3, 4, 6):
        g = sg.group(f"J(C{n})")
        jcomps = [c for c in g.components if "J" in c.label]
        assert len(jcomps) == n
        for comp in jcomps:
            a1, a2 = comp.charpoly_coeffs()
            assert a1 == {}
            assert list(a2.values()) == [(2, 0, 0, 0, 0, 0, 0, 0)]


def test_c1_identity_component_a2_expansion():
    # a2 = 2 + (u^4 + u^-4) + (u^2 + u^-2) on the Hodge circle
    comp = sg.group("C1").components[0]
    _, a2 = comp.charpoly_coeffs()
    assert a2 == {
        (0,): (2, 0, 0, 0, 0, 0, 0, 0),
        (4,): CYC_ONE,
        (-4,): CYC_ONE,
        (2,): CYC_ONE,
        (-2,): CYC_ONE,
    }


def test_d_group_a1_is_sym3_trace():
    # a1 = -(s^3 - 2s) in s = v + 1/v: check moments against direct powers
    comp = sg.group("D").components[0]
    a1, _ = comp.charpoly_coeffs()
    s = {(1,): CYC_ONE, (-1,): CYC_ONE}
    s3 = lp_pow(s, 3, 1)
    expect = {e: tuple(-c for c in v) for e, v in s3.items()}
    twos = {e: (2 * v[0], 0, 0, 0, 0, 0, 0, 0) for e, v in s.items()}
    from stmotives.laurent import lp_add

    assert a1 == lp_add(expect, twos)


def test_component_spectra_closed_under_inversion():
    # symplectic spectra: the eigenvalue multiset is invariant under
    # inversion (exponent negation + root-of-unity conjugation)
    for g in sg.catalog():
        for comp in g.components:
            spec = sorted((zp % 24, exps) for zp, exps in comp.eigen)
            inv = sorted(
                ((-zp) % 24, tuple(-e for e in exps)) for zp, exps in comp.eigen
            )
            assert spec == inv, (g.name, comp.label)


def test_moment_rejects_bad_coeff():
    with pytest.raises(ValueError):
        sg.moment("C1", "a3", 2)


def test_swap_component_moments_match_table_combination():
    # first 9 a2 moments of the N(G_{3,3}) swap coset equal
    # 2*Table3(N(G_{3,3})) - Table3(G_{3,3})
    swap = sg.group("N(G_{3,3})").components[1]
    for n in range(1, 10):
        got = sg.component_moment(swap, "a2", n)
        want = 2 * A2_MOMENTS["N(G_{3,3})"][n - 1] - A2_MOMENTS["G_{3,3}"][n - 1]
        assert got == want
    # and its a1 vanishes identically
    a1, _ = swap.charpoly_coeffs()
    assert a1 == {}


def test_sample_many_range_smoke():
    for name in ("C1", "J(C2)", "U(2)", "F_{ac}", "N(G_{3,3})", "USp(4)"):
        a1, a2 = sg.sample_many(name, 25, seed=7)
        assert np.all((-4.0 - 1e-9 <= a1) & (a1 <= 4.0 + 1e-9))
        assert np.all((-2.0 - 1e-9 <= a2) & (a2 <= 6.0 + 1e-9))


def test_sample_j_component_constant():
    comp = sg.group("J(C1)").components[1]
    assert "J" in comp.label
    a1, a2 = comp.charpoly_coeffs()
    no_angles = np.zeros((1, 0))
    assert sg._lp_eval_np(a1, no_angles)[0] == 0
    assert abs(sg._lp_eval_np(a2, no_angles)[0] - 2) < 1e-12


@pytest.mark.parametrize("name", ["C3", "D", "U(2)", "F_{a,b}", "G_{1,3}", "USp(4)"])
def test_monte_carlo_agrees_with_symbolic(name):
    # quick per-group check at 2*10^5 samples; the full 10^6-sample sweep
    # over all 26 groups runs in the acceptance suite
    n_samples = 200_000
    s1, s2 = sg.sample_many(name, n_samples, seed=11)
    for coeff, vals in (("a1", s1), ("a2", s2)):
        for n in (1, 2, 4, 6):
            emp = np.mean(vals**n)
            sig = np.std(vals**n) / np.sqrt(n_samples)
            exact = sg.moment(name, coeff, n)
            assert abs(emp - exact) <= 5 * sig + 1e-9, (coeff, n, emp, exact)


def test_expectation_rejects_non_rational_result():
    from stmotives.laurent import zeta24_power

    # a lone zeta_24 coefficient cannot cancel to a rational
    expr = lp_term((0,), zeta24_power(2))
    with pytest.raises(ValueError):
        lp_expectation(expr, ("circle",))


def test_expectation_public_wrapper():
    comp = sg.group("U(2)").components[0]
    a1, _ = comp.charpoly_coeffs()
    assert sg.expectation(lp_pow(a1, 2, 2), comp.vars) == 2


def test_emit_group_table_golden_row():
    text = sg.emit_group_table("a1")
    assert "C1\t4\t44\t580\t8092\t116304\t1703636\t25288120\t379061020" in text
    only = sg.emit_group_table("a2", names={"USp(4)"})
    assert only.splitlines()[1] == "USp(4)\t1\t2\t4\t10\t27\t82\t268\t940\t3476"
