"""Hypergeometric trace sums, dual-path identities, Dwork L-polynomials."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from stmotives import padic_hypergeom as ph
from stmotives.records import DegenerateFiber


@pytest.mark.parametrize("p", [3, 7, 11, 13, 17, 23, 31, 41])
def test_eta_band_table_matches_definition(p):
    """The banded H_p kernel (exponent from the grid numerators, sum cut at
    the k-th band) against the definition-based trace, at every precision
    the backend supports.  The series tables need p >= 5 past k = 2, so
    p = 3 runs on the product table."""
    backends = ([ph.GammaProductTable(p, k) for k in range(1, 7)] if p == 3
                else [ph.GammaTables(p, k) for k in range(1, 5)])
    for tables in backends:
        for z in (-1, 2, Fraction(1, 2)):
            fast = ph.hp_fast(z, p, tables).value
            assert fast.k == tables.k
            assert fast.value == ph.trace_Hq(ph.DWORK, z, p, tables.k).value.value


def test_band_cuts_at_11():
    assert (11 + 4) // 5 == 3
    assert (2 * 11 + 3) // 5 == 5


@pytest.mark.parametrize("p", [3, 7, 11, 13, 19, 43, 97, 199])
def test_hp_fast_equals_full_trace(p):
    for z in (-1, 2, Fraction(1, 2)):
        fast = ph.hp_fast(z, p).value.value
        full = ph.trace_Hq(ph.DWORK, z, p, 2).value.value
        assert fast == full


class _CountingTables(ph.GammaTables):
    """Gamma tables that count their gamma_int evaluations."""

    calls = 0

    def gamma_int(self, xhat):
        self.calls += 1
        return super().gamma_int(xhat)


def test_hp_fast_o_of_p_cost():
    ratios = []
    for p in (101, 211, 401, 809, 1601):
        tables = _CountingTables(p, 2)
        ph.hp_fast(-1, p, tables)
        cut = (2 * p + 3) // 5  # the second band cut: terms past it vanish mod p^2
        assert tables.calls <= 5 * cut + 4
        ratios.append(tables.calls / p)
    # linear in p: calls per p stable
    assert max(ratios) / min(ratios) < 1.2


def test_hp_fast_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ph.hp_fast(-1, 5)
    with pytest.raises(ValueError):
        ph.hp_fast(Fraction(1, 7), 7)
    with pytest.raises(ValueError):
        ph.hp_fast(14, 7)


@pytest.mark.parametrize("p", [31, 101])
def test_hp_poly_evaluates_to_hp_fast(p):
    poly = ph.hp_poly(p)
    pk = p * p
    for z in range(1, p):
        t = pow(z, p, pk)
        val = 0
        for c in reversed(poly.coeffs):
            val = (val * t + c) % pk
        assert val == ph.hp_fast(z, p).value.value
    # constant term is the m = 0 summand 1/(1-p)
    assert poly.coeffs[0] == pow(1 - p, -1, pk)
    # coefficients vanish beyond the second band
    m2 = (2 * p + 3) // 5
    assert all(c == 0 for c in poly.coeffs[m2:])


def test_batch_evaluate_tree_equals_horner():
    for p in (11, 101, 131):
        poly = ph.hp_poly(p)
        tree = ph.batch_evaluate(poly, p, force="tree")
        horner = ph.batch_evaluate(poly, p, force="horner")
        assert len(tree) == p - 1
        assert all(tree[z].value.value == horner[z].value.value for z in range(1, p))


def test_batch_matches_per_z_hp_fast():
    p = 11
    for k in (2, 4):
        tables = ph.GammaTables(p, k)
        out = ph.batch_evaluate(ph.hp_poly(p, tables), p)
        for z in range(1, p):
            assert out[z].value == ph.hp_fast(z, p, tables).value


@pytest.mark.parametrize("p", [17, 19, 29, 43])
def test_fast_hp2_loop_equals_generic_trace(p):
    t = ph.GammaTables(p, 4)
    for z in (-1, 2, Fraction(3, 7)):
        fast = ph._dwork_hp2(Fraction(z), p, t)
        full = ph.trace_Hq(ph.DWORK, z, p * p, 4).value.value
        assert fast == full


_PRIMES_17_100 = [p for p in range(17, 100) if all(p % d for d in range(2, 10))]


@settings(max_examples=12, deadline=None)
@given(p=hst.sampled_from(_PRIMES_17_100), num=hst.integers(-10**6, 10**6),
       den=hst.integers(1, 10**6))
def test_hp2_kernel_equals_generic_trace_random(p, num, den):
    z = Fraction(num, den)
    assume(z.numerator % p and z.denominator % p and (z.numerator - z.denominator) % p)
    fast = ph._dwork_hp2(z, p, ph.GammaTables(p, 4))
    assert fast == ph.trace_Hq(ph.DWORK, z, p * p, 4).value.value


@pytest.mark.parametrize("p", [5779, 5783, ph.HP2_MAX_P])
def test_mulmod_exact_near_top_of_range(p):
    m = p**4
    assert m < 2**50
    edges = [0, 1, 2, m // 2, m - 2, m - 1]
    rng = np.random.default_rng(p)
    a = np.array(edges * len(edges) + rng.integers(0, m, 5000).tolist(), dtype=np.int64)
    b = np.array([e for e in edges for _ in edges] + rng.integers(0, m, 5000).tolist(),
                 dtype=np.int64)
    got = ph._mulmod(a, b, m)
    assert got.tolist() == [x * y % m for x, y in zip(a.tolist(), b.tolist())]
    # the scalar-operand form the kernel uses for n * D^-1
    assert ph._mulmod(a, m - 1, m).tolist() == [x * (m - 1) % m for x in a.tolist()]


def test_hp2_kernel_rejects_p_past_int64_range():
    p = 5801  # the next prime after HP2_MAX_P
    assert p**4 >= 2**50
    with pytest.raises(ValueError, match=str(ph.HP2_MAX_P)):
        ph._dwork_hp2(Fraction(-1), p, ph.GammaTables(p, 4))
    with pytest.raises(ValueError, match=str(ph.HP2_MAX_P)):
        ph.dwork_lpoly(-1, p)


@pytest.mark.parametrize("p", [17, 19, 101])
def test_banded_hp_p4_equals_generic(p):
    t = ph.GammaTables(p, 4)
    for z in (-1, 3):
        assert ph.hp_fast(z, p, t).value.value == ph.trace_Hq(ph.DWORK, z, p, 4).value.value


_PRIMES_7_150 = [p for p in range(7, 150) if all(p % d for d in range(2, int(p**0.5) + 1))]


@settings(max_examples=20, deadline=None)
@given(p=hst.sampled_from(_PRIMES_7_150), k=hst.sampled_from([2, 4]),
       num=hst.integers(-10**6, 10**6), den=hst.integers(1, 10**6))
def test_hp_kernel_equals_generic_trace_random(p, k, num, den):
    z = Fraction(num, den)
    assume(z.numerator % p and z.denominator % p)
    fast = ph.hp_fast(z, p, ph.GammaTables(p, k)).value.value
    assert fast == ph.trace_Hq(ph.DWORK, z, p, k).value.value


def test_trace_precision_coherence():
    # values at precision p^4 reduce to the p^2 values
    for p in (17, 29):
        for z in (-1, 2):
            h4 = ph.trace_Hq(ph.DWORK, z, p, 4).value.value
            h2 = ph.trace_Hq(ph.DWORK, z, p, 2).value.value
            assert h4 % (p * p) == h2


def test_c1_weil_bound_sweep():
    for p in (7, 11, 13, 23, 67, 101):
        for z in range(2, 13):
            if z % p in (0, 1):
                continue
            c1 = ph.dwork_c1(z, p)
            assert c1 * c1 <= 16 * p**3


def test_c1_balanced_lift_matches_p4_path():
    # the mod-p^2 lift (valid for p > 64) agrees with the p^4 computation
    for p in (67, 71, 101, 211):
        for z in (-1, 2, 7):
            via_p2 = ph.dwork_c1(z, p)
            via_p4 = -ph.trace_Hq(ph.DWORK, z, p, 4).value.balanced()
            assert via_p2 == via_p4


@pytest.mark.parametrize("p,z", [(3, -1), (7, -1), (13, -1), (7, 3), (13, 7)])
def test_point_count_oracle_small_p(p, z):
    """For p != 1 mod 5 the exotic character classes contribute nothing to
    the F_p count, so #X = 1 + p + p^2 + p^3 - H_p exactly: a fully
    independent check of the trace machinery against the threefold."""
    assert p % 5 != 1
    # z = (5/t)^5 = psi^-5; realize z by brute choice of t with t = 5 psi
    # and psi^-5 = z: scan t in F_p
    tt = None
    for t in range(1, p):
        psi = t * pow(5, -1, p) % p
        if pow(psi, 5, p) and pow(pow(psi, 5, p), -1, p) == z % p:
            tt = t
            break
    if tt is None:
        pytest.skip("no fiber with this z over F_p")
    fifth = [pow(x, 5, p) for x in range(p)]
    n = 0
    for xs in product(range(p), repeat=5):
        if not any(xs):
            continue
        s = sum(fifth[x] for x in xs) - tt * xs[0] * xs[1] * xs[2] * xs[3] * xs[4]
        if s % p == 0:
            n += 1
    npts = n // (p - 1)
    hp = -ph.dwork_lpoly(z, p).c1
    assert npts == 1 + p + p * p + p**3 - hp


@pytest.mark.parametrize("p", [3, 7, 11, 13, 17, 19])
def test_power_sum_self_duality(p):
    """H_{p^3} must equal the third power sum of the Frobenius eigenvalues
    of the self-dual quartic pinned by (H_p, H_{p^2}):
    s3 = H_p^3 - 3 p c2 H_p + 3 p^3 H_p."""
    z = -1
    lp = ph.dwork_lpoly(z, p)
    hp = -lp.c1
    k3 = 7 if p == 3 else (6 if p <= 13 else 5)
    s3 = ph.trace_Hq(ph.DWORK, z, p**3, k3).value.value
    pred = hp**3 - 3 * p * lp.c2 * hp + 3 * p**3 * hp
    assert (pred - s3) % p**k3 == 0


def test_dwork_lpoly_roots_on_critical_circle():
    for p in (7, 13, 31, 101):
        lp = ph.dwork_lpoly(-1, p)
        roots = np.roots([p**6, lp.c1 * p**3, lp.c2 * p, lp.c1, 1])
        assert np.allclose(np.abs(roots) * p**1.5, 1.0, atol=1e-6)


def test_dwork_degenerate_fibers_rejected():
    with pytest.raises(DegenerateFiber):
        ph.dwork_lpoly(1, 7)  # psi^5 = 1
    with pytest.raises(DegenerateFiber):
        ph.dwork_lpoly(7, 7)  # z = 0 mod p
    with pytest.raises(DegenerateFiber):
        ph.dwork_lpoly(Fraction(1, 7), 7)  # pole
    with pytest.raises(DegenerateFiber):
        ph.dwork_lpoly(-1, 5)
    with pytest.raises(DegenerateFiber):
        ph.dwork_lpoly(8, 7)  # 8 = 1 mod 7


def test_c2_window_and_integrality():
    for p in (7, 11, 13, 17, 23, 41):
        for z in (-1, 2, 3):
            if z % p in (0, 1):
                continue
            lp = ph.dwork_lpoly(z, p)
            assert -2 * p * p <= lp.c2 <= 6 * p * p
def test_hvalue_and_hpoly_shapes():
    hv = ph.trace_Hq(ph.DWORK, -1, 49, 4)
    assert hv.q == 49 and hv.value.p == 7 and hv.value.k == 4
    poly = ph.hp_poly(31)
    assert len(poly.coeffs) == 30
