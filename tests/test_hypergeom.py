"""Hypergeometric trace sums, dual-path identities, Dwork L-polynomials."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as hst

from hg_oracle import DWORK, batch_evaluate, gamma_backend, teich_eval, trace_Hq
from stmotives import padic_hypergeom as ph
from stmotives.ntkernel import primes_up_to, teichmuller
from stmotives.records import ConsistencyError, DegenerateFiber, LPoly


@pytest.mark.parametrize("p", [3, 7, 11, 13, 17, 23, 31, 41])
def test_eta_band_table_matches_definition(p):
    """The banded H_p kernel (exponent from the grid numerators, sum cut at
    the k-th band) against the definition-based trace, at every precision
    the backend supports.  The series tables need p >= 5 past k = 2, so
    p = 3 runs on the product table only; every p <= 13 also runs on the
    product table at k = 4..6, the oracle's own, built once per test run."""
    backends = [ph.GammaTables(p, k) for k in range(1, 5)] if p > 3 else []
    if p <= 13:
        backends += [gamma_backend(p, k) for k in range(1 if p == 3 else 4, 7)]
    for tables in backends:
        coeffs = ph.hp_poly(p, tables)
        for z in (-1, 2, Fraction(1, 2)):
            fast = teich_eval(coeffs, z, p, tables.k)
            assert 0 <= fast < tables.pk == p**tables.k
            assert fast == trace_Hq(DWORK, z, p, tables.k)


def test_hp_poly_stops_at_the_band_cut():
    # the k-th band cut: the first m whose term carries p^k, W(m) >= k
    for p, k in product((7, 11, 13, 101), range(1, 5)):
        cut = next((m for m in range(1, p - 1) if ph._wraps(m, p) >= k), p - 1)
        assert len(ph.hp_poly(p, ph.GammaTables(p, k))) == cut, (p, k)


@pytest.mark.parametrize("p", [3, 7, 11, 13, 19, 43, 97, 199])
def test_hp_fast_equals_full_trace(p):
    coeffs = ph.hp_poly(p, ph.GammaTables(p, 2))
    for z in (-1, 2, Fraction(1, 2)):
        fast = teich_eval(coeffs, z, p, 2)
        full = trace_Hq(DWORK, z, p, 2)
        assert fast == full


class _CountingTables(ph.GammaTables):
    """Gamma tables that count the values they evaluate."""

    calls = 0

    def gamma_list(self, xs):
        self.calls += len(xs)
        return super().gamma_list(xs)


def test_hp_fast_o_of_p_cost():
    ratios = []
    for p in (101, 211, 401, 809, 1601):
        tables = _CountingTables(p, 2)
        ph.hp_poly(p, tables)
        cut = (2 * p + 3) // 5  # the second band cut: terms past it vanish mod p^2
        assert tables.calls <= 2 * cut + 4  # two Gamma_p values a term
        ratios.append(tables.calls / p)
    # linear in p: calls per p stable
    assert max(ratios) / min(ratios) < 1.2


def test_c1_path_never_imports_numpy(tmp_path):
    """numpy would raise the c1 CLI process's peak RSS by half: dwork_c1 from
    the small-prime rows and at both precisions of the series tables, and
    `motive dwork --coeffs a1`, run without it."""
    code = ("import sys\n"
            "from stmotives import cli, padic_hypergeom as ph\n"
            "ph.dwork_c1(-1, 13), ph.dwork_c1(-1, 17), ph.dwork_c1(2, 8191)\n"
            "assert 'numpy' not in sys.modules, 'dwork_c1'\n"
            "assert cli.main(['motive', 'dwork', '--z', '-1', '--bound-log2', '9', '--coeffs', 'a1',\n"
            "                 '--classify', '--cache-dir', sys.argv[1]]) == 0\n"
            "assert 'numpy' not in sys.modules, 'motive dwork --coeffs a1'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_dwork_path_never_imports_numpy(tmp_path):
    """A full (c1, c2) row needs no numpy either: dwork_lpoly at p = 17 and
    1021, `motive dwork --coeffs both`, and each worker of a jobs = 2
    process pool that computes a full row, run without it."""
    code = ("import sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from stmotives import cli, padic_hypergeom as ph\n"
            "ph.dwork_lpoly(-1, 17), ph.dwork_lpoly(2, 1021)\n"
            "assert 'numpy' not in sys.modules, 'dwork_lpoly'\n"
            "assert cli.main(['motive', 'dwork', '--z', '-1', '--bound-log2', '8',\n"
            "                 '--coeffs', 'both', '--cache-dir', sys.argv[1]]) == 0\n"
            "assert 'numpy' not in sys.modules, 'motive dwork --coeffs both'\n"
            "def row(p):\n"
            "    return ph.dwork_lpoly(-1, p).c2 is not None, 'numpy' in sys.modules\n"
            "with ProcessPoolExecutor(max_workers=2) as ex:\n"
            "    assert list(ex.map(row, [17, 1021])) == [(True, False)] * 2, 'pool worker'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_hp_fast_rejects_bad_inputs():
    """The inputs the H_p trace used to reject, p = 5, a pole and z = 0 mod p,
    are rejected at row level by both entry points."""
    for z, p in ((-1, 5), (Fraction(1, 7), 7), (14, 7)):
        for entry in (ph.dwork_c1, ph.dwork_lpoly):
            with pytest.raises(DegenerateFiber):
                entry(z, p)


@pytest.mark.parametrize("p", [31, 101])
def test_hp_poly_evaluates_to_hp_fast(p):
    """hp_poly at k = 2, evaluated at Teich(z) = z^p mod p^2 by the test's
    own Horner loop, is the trace at every class of z, and off the
    degenerate fiber z = 1 its balanced lift is the row's c1."""
    coeffs = ph.hp_poly(p, ph.GammaTables(p, 2))
    # the coefficients stop at the second band cut: the later ones vanish mod p^2
    assert len(coeffs) == (2 * p + 3) // 5
    pk = p * p
    for z in range(1, p):
        t = pow(z, p, pk)
        val = 0
        for c in reversed(coeffs):
            val = (val * t + c) % pk
        assert val == trace_Hq(DWORK, z, p, 2)
        if z > 1:
            assert ph._lift(-val, pk, pk // 2) == ph.dwork_c1(z, p)
    # constant term is the m = 0 summand 1/(1-p)
    assert coeffs[0] == pow(1 - p, -1, pk)


def test_batch_evaluate_tree_equals_horner():
    for p in (11, 101, 131):
        coeffs = ph.hp_poly(p, ph.GammaTables(p, 2))
        tree = batch_evaluate(coeffs, p, 2, force="tree")
        horner = batch_evaluate(coeffs, p, 2, force="horner")
        assert len(tree) == p - 1
        assert tree == horner


def test_batch_matches_per_z_hp_fast():
    p = 11
    for k in (2, 4):
        out = batch_evaluate(ph.hp_poly(p, ph.GammaTables(p, k)), p, k)
        for z in range(1, p):
            assert out[z] == trace_Hq(DWORK, z, p, k)


@pytest.mark.parametrize("p", [17, 19, 23, 29, 43])
def test_fast_hp2_loop_equals_generic_trace(p):
    """hp2_poly has p - 1 coefficients, and at Teich(z) it is the trace at
    q = p^2: at every non-degenerate class of z for p <= 23, at three fixed
    z above."""
    coeffs = ph.hp2_poly(p, ph.GammaTables(p, 4))
    assert len(coeffs) == p - 1
    zs = range(2, p) if p <= 23 else (-1, 2, Fraction(3, 7))
    for z in zs:
        assert teich_eval(coeffs, z, p, 4) == trace_Hq(DWORK, z, p * p, 4)


@pytest.mark.parametrize("p", [7, 17, 23])
def test_hp2_poly_at_every_precision_reduces_the_p4_vector(p):
    """hp2_poly at precision k < 4 is the precision-4 vector mod p^k: the
    kernel's p-power bookkeeping (e_m < k, p^e mod p^k) holds at every k."""
    top = ph.hp2_poly(p, ph.GammaTables(p, 4))
    for k in (1, 2, 3):
        assert ph.hp2_poly(p, ph.GammaTables(p, k)) == [c % p**k for c in top]


# SHA-256 of json.dumps(hp2_poly(p, GammaTables(p, 4))): p = 251 and 1021 recorded with
# the numpy int64 kernel that the digit-separated sum replaced, p = 2039 and 5801 with the
# digit-separated kernel that still summed its crossing rows from _terms; the trace oracle
# stops below p = 100
_HP2_DIGESTS = {
    251: "b178aaf9af9850561613d60f55499abe4cec937e9aca04caea209655c80bad0d",
    1021: "d956527c9c3574af78909deaf530f73d053014894955bade1380590c2797c4c4",
    2039: "0124d52f8354b576ef8eccaf63cc2f73ca62656e7792d4cfabce1230218cb8bb",
    5801: "493db907662c2c9f2c44f9b9789ceb248847139187bee520e2e59f134e676126",
}


@pytest.mark.parametrize("p", sorted(_HP2_DIGESTS))
def test_hp2_poly_vectors_pinned_above_the_oracle_range(p):
    vec = ph.hp2_poly(p, ph.GammaTables(p, 4))
    assert len(vec) == p - 1
    assert hashlib.sha256(json.dumps(vec).encode()).hexdigest() == _HP2_DIGESTS[p]


def test_hp2_m0_alpha_gammas_multiply_to_one():
    """hp2_poly takes the m = 0 alpha product ca = prod_{j, v} Gamma_p({p^v j/5})
    as 1: the eight arguments, on the kernel's grid D = 5(p^2 - 1), pair up
    under Gamma_p(x) Gamma_p(1 - x) = +-1."""
    for p in primes_up_to(1200):
        if p < 17:
            continue
        q, pk = p * p, p**4
        d = 5 * (q - 1)
        invd = pow(d, -1, pk)
        args = [p**v * j * (q - 1) % d * invd % pk for j in (1, 2, 3, 4) for v in (0, 1)]
        assert math.prod(ph.GammaTables(p, 4).gamma_list(args)) % pk == 1, p


_PRIMES_17_100 = [p for p in range(17, 100) if all(p % d for d in range(2, 10))]

# the oracle tests report the first failing example: shrinking it would rerun
# the Fraction-based trace_Hq for minutes under a broken kernel
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=12, phases=NO_SHRINK)
@given(p=hst.sampled_from(_PRIMES_17_100), num=hst.integers(-10**6, 10**6),
       den=hst.integers(1, 10**6))
def test_hp2_kernel_equals_generic_trace_random(p, num, den):
    z = Fraction(num, den)
    assume(z.numerator % p and z.denominator % p and (z.numerator - z.denominator) % p)
    fast = teich_eval(ph.hp2_poly(p, ph.GammaTables(p, 4)), z, p, 4)
    assert fast == trace_Hq(DWORK, z, p * p, 4)


def _lift_rows(p: int, k: int) -> dict:
    """Every non-degenerate (p, z mod p) row from the trace at q = p and
    q = p^2 mod p^k, lifted by brute force: the one integer c1 with
    c1^2 <= 16 p^3 and c1 = -H_p, and the one c2 in [-2p^2, 6p^2] with
    2p c2 = H_p^2 - H_{p^2} mod p^k."""
    pk, rows = p**k, {}
    w = math.isqrt(16 * p**3)
    for r in range(2, p):
        hp, hp2 = trace_Hq(DWORK, r, p, k), trace_Hq(DWORK, r, p * p, k)
        c1s = [c for c in range(-w, w + 1) if (c + hp) % pk == 0]
        c2s = [c for c in range(-2 * p * p, 6 * p * p + 1) if (2 * p * c - hp * hp + hp2) % pk == 0]
        assert len(c1s) == len(c2s) == 1, (p, r, c1s, c2s)
        rows[p, r] = (c1s[0], c2s[0])
    return rows


def test_small_prime_rows_certified_by_the_trace():
    """The 26 literal rows at p <= 13 are the definition-based trace, on the
    product table at k = 6 (p = 3) or k = 5, lifted independently of the
    package's window arithmetic."""
    rows = {}
    for p in (3, 7, 11, 13):
        rows.update(_lift_rows(p, 6 if p == 3 else 5))
    assert len(rows) == 1 + 5 + 9 + 11
    assert rows == ph.SMALL_PRIME_ROWS


@settings(max_examples=60)
@given(p=hst.sampled_from([3, 7, 11, 13]), num=hst.integers(-10**6, 10**6),
       den=hst.integers(1, 10**6))
@example(p=7, num=14, den=3)  # z = 0 mod p
@example(p=11, num=25, den=14)  # z = 1 mod p
@example(p=13, num=5, den=26)  # a pole at p
@example(p=3, num=2, den=1)
@example(p=13, num=13, den=23725)  # z = 1/1825: p divides num and den, not z
def test_small_prime_lookup_equals_table_row(p, num, den):
    z = Fraction(num, den)
    if z.denominator % p == 0 or z.numerator % p == 0 or (z.numerator - z.denominator) % p == 0:
        for entry in (ph.dwork_lpoly, ph.dwork_c1):
            with pytest.raises(DegenerateFiber):
                entry(z, p)
        return
    c1, c2 = ph.SMALL_PRIME_ROWS[p, z.numerator * pow(z.denominator, -1, p) % p]
    assert ph.dwork_lpoly(z, p) == LPoly(p, c1, c2)
    assert ph.dwork_c1(z, p) == c1


_NOT_IN_PACKAGE = ("GammaProductTable", "_gamma_backend", "_c2_precision", "trace_Hq",
                    "_prime_power", "_frac", "HGParams", "DWORK", "DWORK_ALPHA", "DWORK_BETA",
                    "ONE_FIFTH", "batch_evaluate", "_multipoint_tree", "_poly_mul", "_poly_rem",
                    "hp_fast", "_hp_coeffs", "_dwork_hp2")


def test_dwork_lpoly_never_calls_the_generic_trace():
    """The oracle lives in the tests only: the package has none of its
    names (nor those of the retired per-z kernels), and no file under src/
    or bench/ imports it."""
    assert [name for name in _NOT_IN_PACKAGE if hasattr(ph, name)] == []
    root = pathlib.Path(__file__).resolve().parent.parent
    sources = [f for d in ("src", "bench") for f in (root / d).rglob("*.py")]
    assert sources
    assert [str(f) for f in sources if "hg_oracle" in f.read_text()] == []
    primes = [p for p in range(3, 62) if all(p % d for d in range(2, p)) and p != 5]
    for p in primes:
        lp = ph.dwork_lpoly(-1, p)
        assert lp.c1 == ph.dwork_c1(-1, p)
    assert len(primes) == 16


def test_hp2_poly_peak_memory_stays_flat():
    """The H_{p^2} kernel holds O(p) lists and packed integers, never a
    structure of size p^2 (8 MB of int64 at p = 1021): its traced peak
    stays below 2 MB."""
    import tracemalloc

    tables = ph.GammaTables(1021, 4)
    tracemalloc.start()
    try:
        ph.hp2_poly(1021, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_hp2_kernel_rejects_p_below_7():
    """At p = 3 two of the four crossing rows coincide; the Dwork row reads
    SMALL_PRIME_ROWS there and never calls the kernel."""
    with pytest.raises(ValueError, match="p >= 7"):
        ph.hp2_poly(3, ph.GammaTables(3, 2))


def test_fiber_rows_past_5791_are_weil_rows_on_the_critical_circle():
    """No oracle reaches p = 5801, the first prime past the range of the retired
    int64 kernel: one vector pair gives the fibers z = 2..201 by Horner, and
    each must be a row of a USp(4) Frobenius: 2p divides H_p^2 - H_{p^2}, and
    LPoly, which checks the exact USp(4) region, holds."""
    p = 5801
    tables = ph.GammaTables(p, 4)
    pk = tables.pk
    hp, hp2 = ph.hp_poly(p, tables), ph.hp2_poly(p, tables)
    rows = {}
    for z in range(2, 202):
        tz = teichmuller(z, p, 4)
        h1 = ph._horner_eval(hp, tz, pk)
        c2, rem = divmod(ph._lift(h1 * h1 - ph._horner_eval(hp2, tz, pk), pk, 12 * p**3), 2 * p)
        assert rem == 0, z
        rows[z] = LPoly(p, ph._lift(-h1, pk, pk // 2), c2)
    for z in (2, 201):
        assert ph.dwork_lpoly(z, p) == rows[z]


@pytest.mark.parametrize("p", [17, 19, 101])
def test_banded_hp_p4_equals_generic(p):
    coeffs = ph.hp_poly(p, ph.GammaTables(p, 4))
    for z in (-1, 3):
        assert teich_eval(coeffs, z, p, 4) == trace_Hq(DWORK, z, p, 4)


_PRIMES_7_150 = [p for p in range(7, 150) if all(p % d for d in range(2, int(p**0.5) + 1))]


@settings(max_examples=20, phases=NO_SHRINK)
@given(p=hst.sampled_from(_PRIMES_7_150), k=hst.sampled_from([2, 4]),
       num=hst.integers(-10**6, 10**6), den=hst.integers(1, 10**6))
def test_hp_kernel_equals_generic_trace_random(p, k, num, den):
    z = Fraction(num, den)
    assume(z.numerator % p and z.denominator % p)
    fast = teich_eval(ph.hp_poly(p, ph.GammaTables(p, k)), z, p, k)
    assert fast == trace_Hq(DWORK, z, p, k)


def test_trace_precision_coherence():
    # values at precision p^4 reduce to the p^2 values
    for p in (17, 29):
        for z in (-1, 2):
            h4 = trace_Hq(DWORK, z, p, 4)
            h2 = trace_Hq(DWORK, z, p, 2)
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
            h, pk = trace_Hq(DWORK, z, p, 4), p**4
            via_p4 = -(h - pk if h > pk // 2 else h)
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
    s3 = trace_Hq(DWORK, z, p**3, k3)
    pred = hp**3 - 3 * p * lp.c2 * hp + 3 * p**3 * hp
    assert (pred - s3) % p**k3 == 0


def test_dwork_lpoly_roots_on_critical_circle():
    for p in (7, 13, 31, 101):
        lp = ph.dwork_lpoly(-1, p)
        roots = np.roots([p**6, lp.c1 * p**3, lp.c2 * p, lp.c1, 1])
        assert np.allclose(np.abs(roots) * p**1.5, 1.0, atol=1e-6)


def test_dwork_degenerate_fibers_rejected():
    """Both row entry points reject the degenerate fibers before any kernel
    work, below and above the small-prime table."""
    cases = [
        (1, 7),  # psi^5 = 1
        (7, 7), (34, 17), (Fraction(202, 3), 101),  # z = 0 mod p
        (Fraction(3, 17), 17), (Fraction(-1, 101), 101),  # a pole
        (2, 5), (-1, 2),  # the excluded primes
        (8, 7), (18, 17), (Fraction(104, 3), 101),  # z = 1 mod p
    ]
    for z, p in cases:
        for entry in (ph.dwork_lpoly, ph.dwork_c1):
            with pytest.raises(DegenerateFiber):
                entry(z, p)


def test_c2_window_and_integrality():
    for p in (7, 11, 13, 17, 23, 41):
        for z in (-1, 2, 3):
            if z % p in (0, 1):
                continue
            lp = ph.dwork_lpoly(z, p)
            assert -2 * p * p <= lp.c2 <= 6 * p * p


def test_c1_lift_is_balanced_and_weil_checked():
    # c1 = -H_p lifted to (-p^k/2, p^k/2]; LPoly checks |c1| <= 4 p^(3/2)
    assert ph._lift(-1, 49, 49 // 2) == -1
    assert ph._lift(-25, 49, 49 // 2) == 24
    assert ph._lift(-24, 49, 49 // 2) == -24
    assert ph._lift(0, 101**2, 101**2 // 2) == 0
    with pytest.raises(ConsistencyError, match="Weil bound"):
        LPoly(101, -5000)  # |c1| = 5000 > 4 * 101^(3/2)


def _patched_row(monkeypatch, p, hp, hp2):
    """dwork_lpoly(-1, p) with H_p and H_{p^2} replaced by the constants hp, hp2."""
    monkeypatch.setattr(ph, "hp_poly", lambda p, tables: [hp])
    monkeypatch.setattr(ph, "hp2_poly", lambda p, tables: [hp2])
    return ph.dwork_lpoly(-1, p)


def test_c2_lift_reaches_both_edges_of_the_window(monkeypatch):
    """2p c2 = H_p^2 - H_{p^2} = -4p^3 is c2 = -2p^2, the factor (1 - p^3 T^2)^2,
    a point of USp(4), and at c1 = 0 the region's top is c2 = 2p^2.  The lift's
    top, 12p^3, is c2 = 6p^2, which is in USp(4) only with c1^2 = 16p^3, so no
    integer row reaches it: the lift keeps it, and LPoly rejects it.  One step
    below the bottom edge is LPoly's ConsistencyError too; one step past the
    top, where the lift wraps by the odd p^4, is the divisibility check's."""
    p = 17
    assert _patched_row(monkeypatch, p, 0, 4 * p**3) == LPoly(p, 0, -2 * p**2)
    assert _patched_row(monkeypatch, p, 0, -4 * p**3 % p**4) == LPoly(p, 0, 2 * p**2)
    assert ph._lift(12 * p**3, p**4, 12 * p**3) == 12 * p**3
    with pytest.raises(ConsistencyError, match="outside the USp\\(4\\) region"):
        _patched_row(monkeypatch, p, 0, 4 * p**3 + 2 * p)
    with pytest.raises(ConsistencyError, match="outside the USp\\(4\\) region"):
        _patched_row(monkeypatch, p, 0, -12 * p**3 % p**4)
    with pytest.raises(ConsistencyError, match="not divisible"):
        _patched_row(monkeypatch, p, 0, -(12 * p**3 + 2 * p) % p**4)


def test_small_prime_c1_rows_are_weil_checked(monkeypatch):
    """A c1-only row at p <= 13 passes through LPoly too."""
    monkeypatch.setitem(ph.SMALL_PRIME_ROWS, (7, 6), (75, 50))  # 75^2 > 16 * 7^3
    for entry in (ph.dwork_c1, ph.dwork_lpoly):
        with pytest.raises(ConsistencyError, match="Weil bound"):
            entry(-1, 7)
