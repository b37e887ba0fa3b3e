import dataclasses
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from stmotives import motives as mv
from stmotives import ntkernel as nt
from stmotives.cmforms import FORMS


def _trial_division_is_prime(n):
    """Oracle for is_prime and for the splitter's primes."""
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def _scan_split(ring, p):
    """Oracle for the splitter: the first x > 0 with 4p - (4 - T^2) x^2 = r^2,
    then y = (T x + r)/2 solves x^2 - T x y + y^2 = p; normalized to 1 mod M."""
    d = 4 - ring.T * ring.T
    for x in range(1, isqrt(4 * p // d) + 1):
        r2 = 4 * p - d * x * x
        r = isqrt(r2)
        if r * r == r2:
            return ring(x, (ring.T * x + r) // 2).normalized()
    raise AssertionError(f"{p} is not a norm from {ring.__name__}")


def test_primes_up_to_small():
    assert nt.primes_up_to(10) == [2, 3, 5, 7]
    assert nt.primes_up_to(2) == [2]
    assert nt.primes_up_to(1) == []


def test_primes_up_to_count_independent_sieve():
    # second opinion: trial division
    def slow(bound):
        return [n for n in range(2, bound + 1) if _trial_division_is_prime(n)]

    assert nt.primes_up_to(2500) == slow(2500)
    assert len(nt.primes_up_to(2**13)) == 1028


@pytest.mark.parametrize(
    "field,bound,expected",
    [
        (nt.QI, 20, [5, 13, 17]),
        (nt.QW, 20, [7, 13, 19]),
        (nt.QIW, 100, [13, 37, 61, 73, 97]),
        (nt.Q, 20, [2, 3, 5, 7, 11, 13, 17, 19]),
    ],
)
def test_degree_one_primes(field, bound, expected):
    assert nt.degree_one_primes(field, bound) == expected


def test_degree_one_q_sqrt3():
    got = nt.degree_one_primes(nt.QSQRT3, 60)
    assert got == [11, 13, 23, 37, 47, 59]
    assert all(p % 12 in (1, 11) for p in got)


def test_degree_one_subset_of_primes():
    allp = set(nt.primes_up_to(500))
    for f in (nt.Q, nt.QI, nt.QW, nt.QIW, nt.QSQRT3):
        assert set(nt.degree_one_primes(f, 500)) <= allp


def test_split_prime_qi_small():
    # either conjugate-class representative satisfies the congruence
    a5 = nt.split_prime_qi(5)
    assert (a5.a, a5.b) in ((-1, 2), (-1, -2))
    a13 = nt.split_prime_qi(13)
    assert (a13.a, a13.b) in ((3, 2), (3, -2))
    with pytest.raises(nt.NotSplitError):
        nt.split_prime_qi(7)


# 3277 = 29 * 113, 29341 = 13 * 37 * 61, 49141 = 157 * 313, 1387 = 19 * 73,
# 2821 = 7 * 13 * 31 and 4033 = 37 * 109 pass c^(n-1) = 1 at every base c that
# the root search tries before its root; only is_prime keeps them out of the memo
@pytest.mark.parametrize("ring,n", [(nt.GaussInt, n) for n in (-3, 1, 7, 21, 25, 65, 3277, 29341, 49141)]
                         + [(nt.EisenInt, n) for n in (1, 5, 25, 49, 91, 1387, 2821, 4033)])
def test_splitter_rejects_what_is_not_a_split_prime(ring, n):
    with pytest.raises(nt.NotSplitError):
        _SPLITTERS[ring](n)
    assert n not in ring._SPLITS


def test_split_prime_qi_normalization_unique():
    conductor = nt.GaussInt(-2, 2)  # (1+i)^3
    one = nt.GaussInt(1, 0)
    for p in nt.degree_one_primes(nt.QI, 1000):
        alpha = nt.split_prime_qi(p)
        assert alpha.norm() == p
        hits = [u for u in nt.GaussInt.UNITS if conductor.divides(u * alpha - one)]
        assert hits == [nt.GaussInt(1, 0)]


def test_split_prime_qomega_normalization_unique():
    for p in nt.degree_one_primes(nt.QW, 1000):
        alpha = nt.split_prime_qomega(p)
        assert alpha.norm() == p
        assert (alpha.a - 1) % 3 == 0 and alpha.b % 3 == 0
        # exactly one unit multiple lands in the class
        hits = [
            u
            for u in nt.EisenInt.UNITS
            if ((u * alpha).a - 1) % 3 == 0 and (u * alpha).b % 3 == 0
        ]
        assert len(hits) == 1


def test_quartic_symbol_identity_and_multiplicativity():
    for p in (5, 13, 17, 29, 37):
        pi = nt.split_prime_qi(p)
        one = nt.GaussInt(1, 0)
        assert nt.residue_symbol_quartic(one, pi) == one
        # complete multiplicativity in the numerator
        for a, b in ((3, 0), (0, 1), (2, 1), (5, 2)):
            for c, d in ((1, 2), (3, 2), (7, 0)):
                x, y = nt.GaussInt(a, b), nt.GaussInt(c, d)
                sx = nt.residue_symbol_quartic(x, pi)
                sy = nt.residue_symbol_quartic(y, pi)
                sxy = nt.residue_symbol_quartic(x * y, pi)
                if 0 not in (sx.norm(), sy.norm()):
                    assert sxy == sx * sy


def test_quartic_symbol_conjugate_pair_gives_norm_symbol():
    # (alpha/pi)_4 (conj(alpha)/pi)_4 = (N(alpha)/pi)_4
    for p in (13, 17, 29):
        pi = nt.split_prime_qi(p)
        for a, b in ((2, 1), (3, 2), (1, 4)):
            x = nt.GaussInt(a, b)
            sx = nt.residue_symbol_quartic(x, pi)
            sc = nt.residue_symbol_quartic(x.conj(), pi)
            sn = nt.residue_symbol_quartic(nt.GaussInt(x.norm(), 0), pi)
            if sx.norm():
                assert sx * sc == sn


def test_cubic_symbol_is_sextic_squared():
    # the cubic symbol (a/pi)_3 = (a/pi)_6^2 is a cube root of unity
    for p in (7, 13, 31):
        pi = nt.split_prime_qomega(p)
        for a in (2, 3, 4, 5):
            s6 = nt.residue_symbol_sextic(nt.EisenInt(a, 0), pi)
            s3 = s6 * s6
            if s3.norm():
                assert s3**3 == nt.EisenInt(1, 0)
                assert s3 in nt.EisenInt.UNITS[::2]


def test_sextic_symbol_basics():
    for p in (7, 13, 19, 31):
        pi = nt.split_prime_qomega(p)
        one = nt.EisenInt(1, 0)
        assert nt.residue_symbol_sextic(one, pi) == one
        for a in (2, 3, 5):
            s = nt.residue_symbol_sextic(nt.EisenInt(a, 0), pi)
            if s.norm():
                assert s**6 == one
        # zero flag when not coprime
        assert nt.residue_symbol_sextic(nt.EisenInt(p, 0), pi).norm() == 0


def test_symbol_rejects_non_prime():
    with pytest.raises(nt.NotSplitError):
        nt.residue_symbol_quartic(nt.GaussInt(3, 0), nt.GaussInt(3, 0))  # norm 9
    with pytest.raises(nt.NotSplitError):
        nt.residue_symbol_sextic(nt.EisenInt(2, 0), nt.EisenInt(4, 0))  # norm 16
    # norms 1 mod n with b != 0 mod N: only the primality check rejects these
    with pytest.raises(nt.NotSplitError):
        nt.residue_symbol_quartic(nt.GaussInt(2, 1), nt.GaussInt(3, 4))  # norm 25
    with pytest.raises(nt.NotSplitError):
        nt.residue_symbol_sextic(nt.EisenInt(2, 1), nt.EisenInt(8, 3))  # norm 49
    # norms 3277 = 29 * 113 and 1387 = 19 * 73, composites 1 mod n that the
    # root search's Fermat check let through: the splitter now refuses them
    for pi, sym in ((nt.GaussInt(51, -26), nt.residue_symbol_quartic),
                    (nt.EisenInt(22, -21), nt.residue_symbol_sextic)):
        with pytest.raises(nt.NotSplitError):
            sym(type(pi)(2, 0), pi)
        assert pi.norm() not in type(pi)._SPLITS


def test_is_prime_matches_the_sieve():
    primes = set(nt.primes_up_to(10**6))
    assert [n for n in range(10**6) if nt.is_prime(n)] == sorted(primes)


@pytest.mark.parametrize("n,factor", [
    (2047, 23), (1373653, 829), (25326001, 2251), (3215031751, 151), (2152302898747, 6763),
    (3474749660383, 1303), (341550071728321, 10670053), (3825123056546413051, 149491)])
def test_is_prime_rejects_strong_pseudoprimes(n, factor):
    # the least strong pseudoprimes to the first 1, 2, ..., 9 prime bases
    assert n % factor == 0
    assert not nt.is_prime(n)


def test_is_prime_range():
    assert nt.is_prime(2**61 - 1) and nt.is_prime(2**79 - 67)
    with pytest.raises(ValueError):
        nt.is_prime(2**89 - 1)


@pytest.mark.parametrize("ring", [nt.GaussInt, nt.EisenInt])
def test_split_matches_the_scan_below_2_14(ring):
    k = len(ring.UNITS)
    split = _SPLITTERS[ring]
    for p in nt.primes_up_to(2**14):
        if p % k == 1:
            assert split(p) == _scan_split(ring, p), p


@given(hst.sampled_from([nt.GaussInt, nt.EisenInt]), hst.integers(5, 2**24 - 2**10))
@settings(max_examples=200, deadline=None)
def test_split_matches_the_scan_below_2_24(ring, n):
    k = len(ring.UNITS)
    p = next(q for q in range(n, 2**25) if q % k == 1 and _trial_division_is_prime(q))
    assert _SPLITTERS[ring](p) == _scan_split(ring, p)


def test_split_and_symbols_near_2_61():
    # out of reach of the scan and of trial division
    ps = []
    p = 2**61 - 2**61 % 12 + 1
    while len(ps) < 3:
        p -= 12
        if nt.is_prime(p):
            ps.append(p)
    for p in ps:
        for ring in (nt.GaussInt, nt.EisenInt):
            alpha = _SPLITTERS[ring](p)
            assert alpha.norm() == p
            assert ring(*ring.M).divides(alpha - ring(1, 0))
            n = len(ring.UNITS)
            for a in (2, 3):
                u = _SYMBOLS[ring](ring(a, 0), alpha)
                assert u in ring.UNITS and u**n == ring(1, 0)


def test_split_memo_holds_generators_to_the_end_of_is_prime_range():
    # the last primes 1 mod 12 below is_prime's bound: |b| reaches 2^40 there,
    # and each generator comes back from its memo entry unchanged
    top, ps = nt._MR_BASES[-1][0], []
    p = top - top % 12 + 1
    while len(ps) < 3:
        p -= 12
        if nt.is_prime(p):
            ps.append(p)
    widest = 0
    for p in ps:
        for ring in (nt.GaussInt, nt.EisenInt):
            alpha = _SPLITTERS[ring](p)
            assert alpha.norm() == p and ring(*ring.M).divides(alpha - ring(1, 0))
            assert _SPLITTERS[ring](p) == alpha
            widest = max(widest, abs(alpha.b))
    assert widest >= 2**40


@pytest.mark.parametrize("ring", [nt.GaussInt, nt.EisenInt])
def test_split_memo_returns_its_own_frozen_normalized_generator(ring):
    # the memo holds the generator object itself, normalized, and every call
    # returns that object; slots keep each entry small and frozen keeps it shared
    split, p = _SPLITTERS[ring], 2029  # 1 mod 12
    alpha = split(p)
    assert split(p) is alpha and ring._SPLITS[p] is alpha
    assert alpha.norm() == p and ring(*ring.M).divides(alpha - ring(1, 0))
    assert not hasattr(alpha, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        alpha.a = 0


class _CountingMemo(dict):
    """A split memo that counts the generators stored in it."""

    stores = 0

    def __setitem__(self, p, entry):
        self.stores += 1
        super().__setitem__(p, entry)


def test_second_constituent_reuses_the_split(monkeypatch):
    # sum(27.2a, 9.4a)/Q: both forms split each p = 1 mod 3 over Q(w), and a
    # second run of the stream in the same process splits none again
    memo = _CountingMemo()
    monkeypatch.setattr(nt.EisenInt, "_SPLITS", memo)
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), nt.Q)
    split_primes = nt.degree_one_primes(nt.QW, 2**12)
    mv.cached_lpoly_stream(spec, 2**12, None)
    assert (memo.stores, sorted(memo)) == (len(split_primes), split_primes)
    mv.cached_lpoly_stream(spec, 2**12, None)
    assert memo.stores == len(split_primes)


_SPLIT_PRIMES = {
    nt.GaussInt: nt.degree_one_primes(nt.QI, 2000),
    nt.EisenInt: nt.degree_one_primes(nt.QW, 2000),
}
_SPLITTERS = {nt.GaussInt: nt.split_prime_qi, nt.EisenInt: nt.split_prime_qomega}
_SYMBOLS = {nt.GaussInt: nt.residue_symbol_quartic, nt.EisenInt: nt.residue_symbol_sextic}


@given(hst.sampled_from([nt.GaussInt, nt.EisenInt]), hst.data())
@settings(max_examples=200)
def test_split_generator_has_norm_p_and_is_one_mod_m(ring, data):
    p = data.draw(hst.sampled_from(_SPLIT_PRIMES[ring]))
    alpha = _SPLITTERS[ring](p)
    assert type(alpha) is ring and alpha.norm() == p
    assert ring(*ring.M).divides(alpha - ring(1, 0))


@given(hst.sampled_from([nt.GaussInt, nt.EisenInt]), hst.data(),
       hst.integers(-50, 50), hst.integers(-50, 50))
@settings(max_examples=200)
def test_residue_symbol_is_the_unit_congruent_to_the_power(ring, data, a, b):
    # pi | alpha^((p-1)/n) - u, computed in Z[t] itself (no residue-field map)
    p = data.draw(hst.sampled_from(_SPLIT_PRIMES[ring]))
    pi, alpha = _SPLITTERS[ring](p), ring(a, b)
    u = _SYMBOLS[ring](alpha, pi)
    if u == ring(0, 0):
        assert pi.divides(alpha)
    else:
        assert u in ring.UNITS
        assert pi.divides(alpha ** ((p - 1) // len(ring.UNITS)) - u)


@given(hst.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_teichmuller_properties(z):
    for p, k in ((7, 2), (13, 4), (101, 2)):
        if z % p == 0:
            continue
        t = nt.teichmuller(z, p, k)
        pk = p**k
        assert pow(t, p - 1, pk) == 1
        assert (t - z) % p == 0


def test_teichmuller_examples():
    assert nt.teichmuller(2, 7, 2) == 30
    assert nt.teichmuller(1, 97, 4) == 1
    with pytest.raises(ValueError):
        nt.teichmuller(14, 7, 2)


def test_gauss_eisen_arithmetic():
    i = nt.GaussInt(0, 1)
    assert i * i == nt.GaussInt(-1, 0)
    w = nt.EisenInt(0, 1)
    assert w * w * w == nt.EisenInt(1, 0)
    assert w * w == nt.EisenInt(-1, -1)
    assert nt.EisenInt(3, 1).norm() == 7
    assert nt.GaussInt(3, 2).norm() == 13


@pytest.mark.parametrize("x", [nt.GaussInt(3, -2), nt.EisenInt(-4, 7)], ids=["gauss", "eisen"])
def test_pow_equals_repeated_products(x):
    power = type(x)(1, 0)
    for k in range(40):
        assert x**k == power
        power = power * x
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
