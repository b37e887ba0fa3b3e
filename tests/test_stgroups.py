"""The 26-group catalog: exact tables, invariants, sampling oracle."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from stmotives import laurent, stats, stgroups as sg
from stmotives.laurent import (
    expectation as lp_expectation, lp_add, lp_const, lp_mul, lp_pow, lp_term,
)

from sample_moments import sample_moments
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

    u = lp_term((1,), 0)
    ui = lp_term((-1,), 0)
    t = {**u, **ui}
    for n in range(0, 7):
        e_circle = lp_expectation(lp_pow(t, 2 * n, 1), ("circle",))
        e_su2 = lp_expectation(lp_pow(t, 2 * n, 1), ("su2",))
        assert e_circle == comb(2 * n, n)
        assert e_su2 == Fraction(comb(2 * n, n), n + 1)


def test_usp4_normalization_is_computed():
    # the USp(4) torus density has constant term 8, and E[1] = 1 under every
    # measure the catalog uses
    assert laurent._DENSITY["usp4"][(0, 0)] == 8
    for kinds in {c.kinds for g in sg.catalog() for c in g.components}:
        assert lp_expectation(lp_const(len(kinds), 1), kinds) == 1


@pytest.mark.parametrize("kinds", [("usp4",), ("usp4", "circle")])
def test_expectation_rejects_a_lone_usp4_variable(kinds):
    with pytest.raises(ValueError, match="must come as a pair"):
        lp_expectation(lp_const(len(kinds), 1), kinds)


def test_expectation_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown measure kind"):
        lp_expectation(lp_const(2, 1), ("circle", "haar"))


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
            a1, a2 = comp.charpoly_coeff("a1"), comp.charpoly_coeff("a2")
            assert a1 == {}
            assert a2 == {(0, ()): 2}


def test_c1_identity_component_a2_expansion():
    # a2 = 2 + (u^4 + u^-4) + (u^2 + u^-2) on the Hodge circle
    comp = sg.group("C1").components[0]
    a2 = comp.charpoly_coeff("a2")
    assert a2 == {(0, (0,)): 2, (0, (4,)): 1, (0, (-4,)): 1, (0, (2,)): 1, (0, (-2,)): 1}


def test_d_group_a1_is_sym3_trace():
    # a1 = -(s^3 - 2s) in s = v + 1/v: check moments against direct powers
    comp = sg.group("D").components[0]
    a1 = comp.charpoly_coeff("a1")
    s = {(0, (1,)): 1, (0, (-1,)): 1}
    s3 = lp_pow(s, 3, 1)
    expect = {key: -c for key, c in s3.items()}
    twos = {key: 2 * c for key, c in s.items()}
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
    with pytest.raises(ValueError):
        sg.component_moment(sg.group("C1").components[0], "a3", 2)


@pytest.mark.parametrize("n", [-1, -4, 2.0, "2", None])
def test_moment_rejects_negative_or_non_int_order(n):
    with pytest.raises(ValueError, match="non-negative int"):
        sg.moment("C1", "a1", n)
    with pytest.raises(ValueError, match="non-negative int"):
        sg.component_moment(sg.group("USp(4)").components[0], "a2", n)


def test_lp_pow_rejects_negative_power():
    with pytest.raises(ValueError):
        lp_pow(lp_term((1,), 0), -1, 1)


def test_zero_is_the_empty_dict():
    # 1 + zeta^8 + zeta^16 = 0 (zeta^8 is a primitive cube root of unity);
    # keyed by the zeta exponent mod 24 or mod 12 it would be three terms
    total = {}
    for j in (0, 8, 16):
        total = lp_add(total, lp_term((0,), j))
    assert total == {}


def _lp_value(f, point):
    """f at a torus point (unit complex numbers), with zeta_24 = e^(i pi/12)."""
    zeta = cmath.exp(1j * math.pi / 12)
    return sum(c * zeta**k * math.prod(t**e for t, e in zip(point, exps))
               for (k, exps), c in f.items())


def test_zeta_table_rows_are_the_24th_roots_of_unity():
    for j in range(24):
        row = laurent._ZETA24[j]
        assert all(0 <= k < 8 and c for k, c in row)
        assert abs(_lp_value(lp_term((), j), ()) - cmath.exp(1j * math.pi * j / 12)) < 1e-12


def _laurent_polys(nvars, span=3, ks=hst.integers(0, 7)):
    key = hst.tuples(ks, hst.tuples(*[hst.integers(-span, span)] * nvars))
    return hst.dictionaries(key, hst.integers(-5, 5).filter(bool), max_size=6)


@settings(max_examples=60)
@given(hst.data())
def test_lp_mul_and_lp_add_agree_with_complex_evaluation(data):
    nvars = data.draw(hst.integers(0, 2), label="nvars")
    f = data.draw(_laurent_polys(nvars), label="f")
    g = data.draw(_laurent_polys(nvars), label="g")
    angles = data.draw(hst.lists(hst.floats(0.0, 2 * math.pi), min_size=nvars, max_size=nvars),
                       label="angles")
    point = [cmath.exp(1j * a) for a in angles]
    fv, gv = _lp_value(f, point), _lp_value(g, point)
    for got, want in ((lp_mul(f, g), fv * gv), (lp_add(f, g), fv + gv)):
        assert all(0 <= k < 8 and c for (k, _), c in got.items())  # canonical: no zero terms
        assert abs(_lp_value(got, point) - want) < 1e-8


def _su2_rule(j):
    return Fraction(j == 0) - Fraction(abs(j) == 2, 2)


# E[u^j] for one variable of each single kind, in closed form
_KIND_RULES = {
    "circle": lambda j: Fraction(j == 0),
    "su2": _su2_rule,
    "su2sqrt": lambda j: _su2_rule(j // 2) if j % 2 == 0 else Fraction(0),
}


def _usp4_grid_moment(a, b):
    """E[v1^a v2^b] under the USp(4) torus weight by a 16 x 16 grid quadrature,
    exact for trigonometric degree below 16 in each angle (here at most 8)."""
    t = 2 * np.pi * np.arange(16) / 16
    v1, v2 = np.exp(1j * t)[:, None], np.exp(1j * t)[None, :]
    w = ((v1 - 1 / v1) * (v2 - 1 / v2) * (v1 + 1 / v1 - v2 - 1 / v2)) ** 2
    return (v1**a * v2**b * w).mean().real / w.mean().real


@settings(max_examples=300)
@given(hst.data())
def test_expectation_matches_closed_forms_and_usp4_quadrature(data):
    kinds = data.draw(hst.one_of(
        hst.lists(hst.sampled_from(sorted(_KIND_RULES)), min_size=1, max_size=2).map(tuple),
        hst.just(("usp4", "usp4"))), label="kinds")
    # power-basis slots 0 and one more: slot 0 alone is rational, and a lone
    # irrational slot must cancel on its own
    slot = data.draw(hst.one_of(hst.just(0), hst.integers(1, 7)), label="slot")
    f = data.draw(_laurent_polys(len(kinds), span=4, ks=hst.sampled_from((0, slot))), label="f")
    usp4 = kinds == ("usp4", "usp4")
    want = [0] * 8  # E of each power-basis slot
    for (k, e), c in f.items():
        if usp4:
            want[k] += c * _usp4_grid_moment(*e)
        else:
            want[k] += c * math.prod(_KIND_RULES[kd](j) for kd, j in zip(kinds, e))
    if any(abs(x) > 1e-9 for x in want[1:]):
        with pytest.raises(ValueError, match="non-rational"):
            lp_expectation(f, kinds)
    elif usp4:
        assert abs(lp_expectation(f, kinds) - want[0]) < 1e-9
    else:
        assert lp_expectation(f, kinds) == want[0]


def test_expectation_of_each_monomial_matches_the_oracles():
    # a lone zeta_24^1 part, slot 1 of the power basis, is not rational
    with pytest.raises(ValueError, match="non-rational"):
        lp_expectation({(1, (0,)): 1}, ("su2",))
    for j in range(-4, 5):
        for kd, rule in _KIND_RULES.items():
            assert lp_expectation({(0, (j,)): 1}, (kd,)) == rule(j)
        for i in range(-4, 5):
            got = lp_expectation({(0, (j, i)): 1}, ("usp4", "usp4"))
            assert abs(got - _usp4_grid_moment(j, i)) < 1e-9


def _direct_moment(components, coeff, n):
    """The group moment from one lp_pow per component (no shared series)."""
    total = Fraction(0)
    for comp in components:
        f = comp.charpoly_coeff(coeff)
        total += lp_expectation(lp_pow(f, n, len(comp.kinds)), comp.kinds)
    return Fraction(total, len(components))


@settings(max_examples=30)
@given(hst.data())
def test_moment_engine_matches_direct_powers(data):
    g = data.draw(hst.sampled_from(sg.catalog()), label="group")
    coeff = data.draw(hst.sampled_from(("a1", "a2")), label="coeff")
    top = 18 if coeff == "a1" else 12
    ns = data.draw(hst.lists(hst.integers(0, top), min_size=1, max_size=5, unique=True),
                   label="orders")
    if data.draw(hst.booleans(), label="cold"):
        sg._SERIES.clear()
        sg._group_moment.cache_clear()
    for n in ns:
        assert sg.moment(g, coeff, n) == _direct_moment(g.components, coeff, n)
    # a caller-built group reusing a catalog name is keyed on its own
    # components, never served that catalog group's moments
    alias = data.draw(hst.sampled_from(ALL_NAMES), label="alias")
    impostor = sg.STGroup(alias, g.dim, g.component_group, g.components)
    for n in ns:
        assert sg.moment(impostor, coeff, n) == _direct_moment(g.components, coeff, n)


def test_caller_built_group_with_catalog_name_gets_its_own_moments(monkeypatch):
    usp4 = sg.group("USp(4)")
    assert sg.moment("C1", "a1", 2) == 4
    impostor = sg.STGroup("C1", usp4.dim, "C1", usp4.components)
    assert sg.moment(impostor, "a1", 2) == 1
    a1 = {n: float(m) for n, m in zip(stats.A1_NS, A1_MOMENTS["USp(4)"])}
    a2 = {n: float(m) for n, m in zip(stats.A2_NS, A2_MOMENTS["USp(4)"])}
    monkeypatch.setattr(sg, "catalog", lambda: (sg.group("C2"), impostor))
    result = stats.classify(stats.MomentStats(0, 1, a1, a2))
    assert result.ranked[0] == ("C1", 0.0)


def _count_lp_mul(monkeypatch):
    calls = [0]
    orig = laurent.lp_mul

    def counted(f, g):
        calls[0] += 1
        return orig(f, g)

    monkeypatch.setattr(laurent, "lp_mul", counted)
    monkeypatch.setattr(sg, "lp_mul", counted)
    return calls


def test_cold_a1_table_takes_at_most_16_products_per_spectrum(monkeypatch):
    monkeypatch.setattr(sg, "_SERIES", {})
    sg._group_moment.cache_clear()
    calls = _count_lp_mul(monkeypatch)
    text = sg.emit_group_table("a1")
    spectra = {(c.kinds, c.eigen) for g in sg.catalog() for c in g.components}
    assert "C1\t4\t44\t580\t8092\t116304\t1703636\t25288120\t379061020" in text
    assert 0 < calls[0] <= 16 * len(spectra)


def test_repeat_classify_reuses_every_group_moment(monkeypatch):
    def exact(name):
        a1 = {n: float(m) for n, m in zip(stats.A1_NS, A1_MOMENTS[name])}
        a2 = {n: float(m) for n, m in zip(stats.A2_NS, A2_MOMENTS[name])}
        return stats.MomentStats(0, 1, a1, a2)

    assert stats.classify(exact("D")).top == "D"
    calls = _count_lp_mul(monkeypatch)
    assert stats.classify(exact("U(2)")).top == "U(2)"
    assert calls[0] == 0


def test_swap_component_moments_match_table_combination():
    # first 9 a2 moments of the N(G_{3,3}) swap coset equal
    # 2*Table3(N(G_{3,3})) - Table3(G_{3,3})
    swap = sg.group("N(G_{3,3})").components[1]
    for n in range(1, 10):
        got = sg.component_moment(swap, "a2", n)
        want = 2 * A2_MOMENTS["N(G_{3,3})"][n - 1] - A2_MOMENTS["G_{3,3}"][n - 1]
        assert got == want
    # and its a1 vanishes identically
    a1 = swap.charpoly_coeff("a1")
    assert a1 == {}


def test_sample_many_range_smoke():
    for name in ("C1", "J(C2)", "U(2)", "F_{ac}", "N(G_{3,3})", "USp(4)"):
        a1, a2 = sg.sample_many(name, 25, seed=7)
        assert np.all((-4.0 - 1e-9 <= a1) & (a1 <= 4.0 + 1e-9))
        assert np.all((-2.0 - 1e-9 <= a2) & (a2 <= 6.0 + 1e-9))


def _one_component_group(comp):
    return sg.STGroup(f"only {comp.label}", 1, "C1", (comp,))


def test_sample_j_component_constant():
    comp = sg.group("J(C1)").components[1]
    assert "J" in comp.label
    a1, a2 = sg.sample_many(_one_component_group(comp), 50, seed=3)
    assert np.all(np.abs(a1) < 1e-12)
    assert np.all(np.abs(a2 - 2) < 1e-12)
    # zeta^2 + zeta^22 = 2 cos(pi/6): the eigenvalue phases carry the root of unity
    root3 = sg.Component("root3", (), ((2, ()), (22, ()), (0, ()), (0, ())))
    a1, _ = sg.sample_many(_one_component_group(root3), 50, seed=3)
    assert np.all(np.abs(a1 + 2 + math.sqrt(3)) < 1e-12)
    # a spectrum not closed under inversion gives non-real a1
    lone = sg.Component("lone", (), ((2, ()), (0, ()), (0, ()), (0, ())))
    with pytest.raises(ArithmeticError):
        sg.sample_many(_one_component_group(lone), 50, seed=3)


def test_sample_many_reads_spectra_not_laurent_polynomials(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the sampler reached the Laurent engine")

    for target in (sg, laurent):
        monkeypatch.setattr(target, "lp_mul", boom)
        monkeypatch.setattr(target, "lp_term", boom)
    monkeypatch.setattr(sg.Component, "charpoly_coeff", boom)
    for g in sg.catalog():
        a1, a2 = sg.sample_many(g, 500, seed=g.catalog_index + 1)
        assert a1.shape == a2.shape == (500,)
        assert np.all(np.abs(a1) <= 4 + 1e-9) and np.all((-2 - 1e-9 <= a2) & (a2 <= 6 + 1e-9))


@pytest.mark.parametrize("name", ["C3", "D", "U(2)", "F_{a,b}", "G_{1,3}", "USp(4)"])
def test_monte_carlo_agrees_with_symbolic(name):
    # quick per-group check at 2*10^5 samples; the full 10^6-sample sweep
    # over all 26 groups runs in the acceptance suite
    n_samples = 200_000
    s1, s2 = sg.sample_many(name, n_samples, seed=11)
    for coeff, vals in (("a1", s1), ("a2", s2)):
        means, stds = sample_moments(vals, 6)
        for n in (1, 2, 4, 6):
            emp = means[n]
            sig = stds[n] / np.sqrt(n_samples)
            exact = sg.moment(name, coeff, n)
            assert abs(emp - exact) <= 5 * sig + 1e-9, (coeff, n, emp, exact)


def test_usp4_rejection_envelope_is_tight():
    """The acceptance probability is the weight over its maximum 16/27:
    never above 1 on a dense grid, and 1 at cos t1 = -cos t2 = 1/sqrt(3)."""
    t = np.linspace(0.0, np.pi, 1201)
    accept = sg._usp4_accept(t[:, None], t[None, :])
    assert accept.max() <= 1.0 + 1e-12
    assert accept.max() > 0.999
    a = np.arccos(1 / np.sqrt(3))
    assert abs(sg._usp4_accept(a, np.pi - a) - 1.0) < 1e-12


def test_expectation_rejects_non_rational_result():
    # a lone zeta_24 coefficient cannot cancel to a rational
    expr = lp_term((0,), 2)
    with pytest.raises(ValueError):
        lp_expectation(expr, ("circle",))


def test_emit_group_table_golden_row():
    text = sg.emit_group_table("a1")
    assert "C1\t4\t44\t580\t8092\t116304\t1703636\t25288120\t379061020" in text
    only = sg.emit_group_table("a2", names={"USp(4)"})
    assert only.splitlines()[1] == "USp(4)\t1\t2\t4\t10\t27\t82\t268\t940\t3476"
