"""Gamma tables against the raw product definition, at both precisions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hg_oracle import GammaProductTable
from stmotives import padic_hypergeom as ph
from stmotives.ntkernel import rational_mod


def gamma_int(t, x: int) -> int:
    """Gamma_p at one residue x mod p^k, through the backend's gamma_list."""
    return t.gamma_list([x])[0]


def gamma_frac(t, x: Fraction) -> int:
    """Gamma_p at a p-integral rational x mod p^k (ValueError if p divides its denominator)."""
    return gamma_int(t, rational_mod(x.numerator, x.denominator, t.pk))


def gamma_product(n: int, p: int, pk: int) -> int:
    """Gamma_p(n) = (-1)^n prod_{0<j<n, p coprime j} j, the defining values."""
    g = 1
    for j in range(1, n):
        if j % p:
            g = g * j % pk
    return (-g) % pk if n % 2 else g


def gamma_products(ns, p: int, pk: int) -> dict:
    """{n: gamma_product(n, p, pk)} for every n in ns, from one running product."""
    out, g, m = {}, 1, 1  # g = the product of the units j < m
    for n in sorted(ns):
        for j in range(m, n):
            if j % p:
                g = g * j % pk
        m = max(m, n)
        out[n] = (-g) % pk if n % 2 else g
    return out


def test_gamma_tables_factorials_and_sums():
    t = ph.GammaTables(5, 2)
    # Gamma_p(n) = (-1)^n (n-1)! for 0 < n <= p: the factorials 1, 1, 2, 6, 24
    assert t.C[0] == [1, 24, 1, 23, 6]
    assert [gamma_int(t, n) for n in range(6)] == [1, 24, 1, 23, 6, 1]
    # Gamma_p(p + 3) = 4! (p + 1)(p + 2) = 4! (2! + 2! (1/1 + 1/2) p) mod p^2
    assert gamma_int(t, 8) == 24 * (2 + 3 * 5) % 25


@pytest.mark.parametrize("p", [7, 11, 23, 97, 211])
def test_recurrence_matches_exact_integers(p):
    """Gamma_p(n + 1) = (-1)^(n+1) n! and, with prod_{0<j<=n} (p + j) = n! (1 + p H_n)
    mod p^2, Gamma_p(p + n + 1) = (-1)^(p+n+1) (p-1)! (n! + p n! H_n)."""
    t = ph.GammaTables(p, 2)
    pk = p * p
    wilson = math.factorial(p - 1)
    fact = 1
    for n in range(1, p):
        fact *= n
        assert gamma_int(t, n + 1) == (-1) ** (n + 1) * fact % pk
        lift = fact + p * sum(fact // k for k in range(1, n + 1))
        assert gamma_int(t, p + n + 1) == (-1) ** (p + n + 1) * wilson * lift % pk


@pytest.mark.parametrize("p", [7, 11, 13])
def test_gamma_negative_one_normalization(p):
    t = ph.GammaTables(p, 2)
    assert gamma_frac(t, Fraction(1)) == p * p - 1  # Gamma_p(1) = -1
    assert gamma_int(t, 0) == 1  # Gamma_p(0) = 1


def test_gamma_7_of_3():
    t = ph.GammaTables(7, 2)
    assert gamma_frac(t, Fraction(3)) == 47  # -2 mod 49


@pytest.mark.parametrize("p", [7, 11, 29, 101])
def test_gamma_p2_integer_arguments_vs_product(p):
    t = ph.GammaTables(p, 2)
    pk = p * p
    for n in range(0, min(pk, 4 * p)):
        assert gamma_int(t, n) == gamma_product(n, p, pk), n


@pytest.mark.parametrize("p", [5, 7, 17, 41])
def test_gamma_p4_integer_arguments_vs_product(p):
    t = ph.GammaTables(p, 4)
    pk = p**4
    # the interpolation points 0..3p pin the cubic series exactly,
    # and a scatter of large representatives
    small, scatter = range(0, 4 * p + 2), range(pk - 2 * p, pk, 7)
    want = gamma_products([*small, *scatter], p, pk)
    for n in small:
        assert gamma_int(t, n) == want[n], n
    for n in scatter:
        assert gamma_int(t, n) == want[n], n


@pytest.mark.parametrize("p", [7, 17, 31])
def test_precision_compatibility(p):
    t2 = ph.GammaTables(p, 2)
    t4 = ph.GammaTables(p, 4)
    for num in range(1, 40):
        x = Fraction(num, 97)
        assert gamma_frac(t4, x) % (p * p) == gamma_frac(t2, x)


def test_a2_defining_relation():
    # 2 a2 + ((p-1)! + 1/(p-1)! + 2) = 0 mod p^4
    for p in (5, 13, 37):
        t = ph.GammaTables(p, 4)
        pk = p**4
        w = math.factorial(p - 1) % pk
        assert (2 * t.a2 + w + pow(w, -1, pk) + 2) % pk == 0


@pytest.mark.parametrize("p", [7, 13, 29])
def test_reflection_formula(p):
    # Gamma_p(x) Gamma_p(1-x) = +-1; check mod p^2 against the product path
    t = ph.GammaTables(p, 2)
    pk = p * p
    for num in range(1, 25):
        x = Fraction(num, 53)
        g1 = gamma_frac(t, x - x.numerator // x.denominator)
        g2 = gamma_frac(t, Fraction(1) - (x - x.numerator // x.denominator))
        assert g1 * g2 % pk in (1, pk - 1)


def test_gamma_rejects_p_in_denominator():
    t = ph.GammaTables(7, 2)
    with pytest.raises(ValueError):
        gamma_frac(t, Fraction(1, 7))
    with pytest.raises(ValueError):
        gamma_frac(ph.GammaTables(7, 4), Fraction(3, 14))


def test_series_tables_match_product_table_smallish_p():
    # the two backends agree on every residue at every precision
    for p in (7, 17):
        for k in (1, 2, 3, 4):
            xs = range(p**k)
            assert ph.GammaTables(p, k).gamma_list(xs) == GammaProductTable(p, k).gamma_list(xs), (p, k)


def _check_gauss_multiplication_and_reflection(t, rng):
    """At random residues x mod p^k, through gamma_list:
    prod_{j<5} Gamma_p(x + j/5) = eps_5 5^(1-R) c^Q Gamma_p(5x) (5x = R + pQ,
    1 <= R <= p, c = 5^-(p-1), eps_5 = prod_j Gamma_p(j/5); Robert, A Course in
    p-adic Analysis, ch. VII) and Gamma_p(x) Gamma_p(1-x) = (-1)^R(x).  c^Q is
    the binomial series sum_{i<k} C(Q, i) (c-1)^i, which needs Q mod p^(k-1) only."""
    p, k, pk = t.p, t.k, t.pk
    inv5 = pow(5, -1, pk)
    eps5 = math.prod(t.gamma_list([j * inv5 % pk for j in range(5)])) % pk
    c = pow(5, 1 - p, pk)
    xs = [0, 1, pk - 1] + rng.integers(0, pk, 60).tolist()
    gs = t.gamma_list(xs)
    for x, g in zip(xs, gs):
        y = 5 * x % pk
        r = y % p or p
        q = (y - r) // p % p ** (k - 1)
        cq = sum(math.comb(q, i) * (c - 1) ** i for i in range(k))
        lhs = math.prod(t.gamma_list([(x + j * inv5) % pk for j in range(5)]))
        assert lhs % pk == eps5 * pow(5, 1 - r, pk) * cq * gamma_int(t, y) % pk, x
        assert g * gamma_int(t, (1 - x) % pk) % pk == (-1) ** (x % p or p) % pk, x


@pytest.mark.parametrize("p", [7, 13, 101, 8191])
def test_gauss_multiplication_and_reflection_on_series_tables(p):
    for k in (1, 2, 3, 4):
        _check_gauss_multiplication_and_reflection(ph.GammaTables(p, k), np.random.default_rng(p + k))


@pytest.mark.parametrize("p", [3, 7, 13])
def test_gauss_multiplication_and_reflection_on_product_table(p):
    for k in range(1, 7):
        _check_gauss_multiplication_and_reflection(GammaProductTable(p, k),
                                                   np.random.default_rng(p + k))


@pytest.mark.parametrize("p,k", [(3, 6), (7, 5), (13, 4), (101, 2), (8191, 4)])
def test_band_kernel_gauss_factor(p, k):
    """The banded H_p kernel's 5^(1+f) omega(5)^(-5m), f = floor(5m/p), is the
    Gauss factor 5^(1-R(y)) (5^-(p-1))^Q(y) at y = 5m/(1-p), for every m < p-1."""
    pk = p**k
    c = pow(5, 1 - p, pk)
    w5 = pow(5, p ** (k - 1), pk)  # the Teichmuller lift of 5
    for m in range(1, p - 1):
        y = 5 * m * pow(1 - p, -1, pk) % pk
        r = y % p or p
        q = (y - r) // p % p ** (k - 1)
        cq = sum(math.comb(q, i) * (c - 1) ** i for i in range(k))
        assert pow(5, 1 - r, pk) * cq % pk == pow(5, 1 + 5 * m // p, pk) * pow(w5, -5 * m, pk) % pk, m
