"""Gamma tables against the raw product definition, at both precisions."""

from fractions import Fraction

import pytest

from stmotives import padic_hypergeom as ph


def gamma_product(n: int, p: int, pk: int) -> int:
    """Gamma_p(n) = (-1)^n prod_{0<j<n, p coprime j} j, the defining values."""
    g = 1
    for j in range(1, n):
        if j % p:
            g = g * j % pk
    return (-g) % pk if n % 2 else g


def test_gamma_tables_factorials_and_sums():
    t = ph.GammaTables(5, 2)
    assert t.F == [1, 1, 2, 6, 24]
    # T_2 = 2!/1 + 2!/2 = 3
    assert t.T[2] == 3
    assert t.T[0] == 0 and t.F[0] == 1


@pytest.mark.parametrize("p", [7, 11, 23, 97, 211])
def test_recurrence_matches_exact_integers(p):
    t = ph.GammaTables(p, 2)
    pk = p * p
    fact = 1
    for n in range(1, p):
        fact *= n
        assert t.F[n] == fact % pk
        assert t.T[n] == sum(fact // k for k in range(1, n + 1)) % pk


@pytest.mark.parametrize("p", [7, 11, 13])
def test_gamma_negative_one_normalization(p):
    t = ph.GammaTables(p, 2)
    assert t.gamma_frac(Fraction(1)) == p * p - 1  # Gamma_p(1) = -1
    assert t.gamma_int(0) == 1  # Gamma_p(0) = 1


def test_gamma_7_of_3():
    t = ph.GammaTables(7, 2)
    assert t.gamma_frac(Fraction(3)) == 47  # -2 mod 49


@pytest.mark.parametrize("p", [7, 11, 29, 101])
def test_gamma_p2_integer_arguments_vs_product(p):
    t = ph.GammaTables(p, 2)
    pk = p * p
    for n in range(0, min(pk, 4 * p)):
        assert t.gamma_int(n) == gamma_product(n, p, pk), n


@pytest.mark.parametrize("p", [5, 7, 17, 41])
def test_gamma_p4_integer_arguments_vs_product(p):
    t = ph.GammaTables(p, 4)
    pk = p**4
    # the interpolation points 0..3p pin the cubic series exactly
    for n in range(0, 4 * p + 2):
        assert t.gamma_int(n) == gamma_product(n, p, pk), n
    # and a scatter of large representatives
    for n in range(pk - 2 * p, pk, 7):
        assert t.gamma_int(n) == gamma_product(n, p, pk), n


@pytest.mark.parametrize("p", [7, 17, 31])
def test_precision_compatibility(p):
    t2 = ph.GammaTables(p, 2)
    t4 = ph.GammaTables(p, 4)
    for num in range(1, 40):
        x = Fraction(num, 97)
        assert t4.gamma_frac(x) % (p * p) == t2.gamma_frac(x)


def test_a2_defining_relation():
    # 2 a2 + ((p-1)! + 1/(p-1)! + 2) = 0 mod p^4
    for p in (5, 13, 37):
        t = ph.GammaTables(p, 4)
        pk = p**4
        w = t.F[p - 1]
        assert (2 * t.a2 + w + pow(w, -1, pk) + 2) % pk == 0


@pytest.mark.parametrize("p", [7, 13, 29])
def test_reflection_formula(p):
    # Gamma_p(x) Gamma_p(1-x) = +-1; check mod p^2 against the product path
    t = ph.GammaTables(p, 2)
    pk = p * p
    for num in range(1, 25):
        x = Fraction(num, 53)
        g1 = t.gamma_frac(x - x.numerator // x.denominator)
        g2 = t.gamma_frac(Fraction(1) - (x - x.numerator // x.denominator))
        assert g1 * g2 % pk in (1, pk - 1)


def test_gamma_rejects_p_in_denominator():
    t = ph.GammaTables(7, 2)
    with pytest.raises(ValueError):
        t.gamma_frac(Fraction(1, 7))
    with pytest.raises(ValueError):
        ph.GammaTables(7, 4).gamma_frac(Fraction(3, 14))


def test_series_tables_match_product_table_smallish_p():
    # the two backends agree on every residue for a small modulus
    p = 17
    t = ph.GammaTables(p, 2)
    big = ph.GammaProductTable(p, 2)
    assert all(t.gamma_int(n) == big.gamma_int(n) for n in range(p * p))

