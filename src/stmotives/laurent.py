"""Exact Laurent-polynomial arithmetic over Z[zeta_24].

The moment engine works with characteristic-polynomial coefficients of
4x4 unitary matrices whose eigenvalues are roots of unity times monomials
in torus variables.  Every root of unity that occurs has order dividing 24
(12th roots from the component translates, primitive 8th roots from the
constant-spectrum components of the U(1)xU(1) normalizer family), so a
single fixed ring Z[zeta_24] covers everything.

A Laurent polynomial is a dict mapping (k, exponent tuple) to a nonzero
int: the key (k, e) stands for z^k u^e, with k in 0..7 indexing the power
basis 1, z, ..., z^7 of Z[zeta_24] (z = zeta_24, z^8 = z^4 - 1).  The
power basis is a Z-basis, so a polynomial is zero exactly when its dict is
empty, and it is a rational constant exactly when its only key is
(0, zeros).  Keys by the zeta exponent mod 24 (or mod 12 with a sign) would
not be canonical: 1 + z^8 + z^16 = 0 in Z[zeta_24], but not in those rings.
Products reduce z^(k1 + k2) through the rows of one table of zeta_24^j.

A measure on the torus is its Weyl density table: an integer Laurent
polynomial in exponents alone, the product of one table per variable kind
(a pair of "usp4" variables shares one).  `expectation` reads one density
coefficient per term and divides by the constant term once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add


def _zeta24_rows() -> tuple:
    """Row j holds zeta_24^j on the power basis as (k, coefficient) pairs,
    built by repeated multiplication by z (z * z^7 = z^4 - 1).  Rows 0..14
    double as the reduction of z^(k1 + k2) in lp_mul."""
    rows, v = [], [1, 0, 0, 0, 0, 0, 0, 0]
    for _ in range(24):
        rows.append(tuple((k, c) for k, c in enumerate(v) if c))
        top = v[7]
        v = [-top] + v[:7]
        v[4] += top
    return tuple(rows)


_ZETA24 = _zeta24_rows()


def lp_const(nvars: int, c: int) -> dict:
    return {(0, (0,) * nvars): c} if c else {}


def lp_term(exps: tuple, j: int) -> dict:
    """zeta_24^j times the monomial with exponents exps."""
    return {(k, exps): c for k, c in _ZETA24[j % 24]}


def lp_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for key, c in g.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def lp_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    get = out.get
    for (k1, e1), c1 in f.items():
        for (k2, e2), c2 in g.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            for k, s in _ZETA24[k1 + k2]:
                key = (k, e)
                out[key] = get(key, 0) + s * c
    return {key: c for key, c in out.items() if c}


def lp_pow(f: dict, n: int, nvars: int) -> dict:
    """f^n by binary powering (n >= 0): the moment engine's test oracle."""
    if n < 0:
        raise ValueError(f"negative power {n} of a Laurent polynomial")
    out = lp_const(nvars, 1)
    base = f
    while n:
        if n & 1:
            out = lp_mul(out, base)
        base = lp_mul(base, base) if n > 1 else base
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# Weyl densities against the uniform measure on each variable's circle


def _usp4_density() -> dict:
    # ((v1 - 1/v1)(v2 - 1/v2)(v1 + 1/v1 - v2 - 1/v2))^2, constant term 8
    x = lp_mul({(0, (1, 0)): 1, (0, (-1, 0)): -1}, {(0, (0, 1)): 1, (0, (0, -1)): -1})
    x = lp_mul(x, {(0, (1, 0)): 1, (0, (-1, 0)): 1, (0, (0, 1)): -1, (0, (0, -1)): -1})
    return {e: c for (_, e), c in lp_mul(x, x).items()}


_DENSITY = {
    "circle": {(0,): 1},
    "su2": {(0,): 2, (2,): -1, (-2,): -1},
    "su2sqrt": {(0,): 2, (4,): -1, (-4,): -1},  # h^2 is an su2 variable
    "usp4": _usp4_density(),  # one table for the pair
}


@cache
def _density(kinds: tuple) -> tuple[dict, int]:
    """The product of the variables' density tables, keyed by the negated
    exponent tuple (so E[u^e] reads key e), and its constant term."""
    usp = tuple(i for i, kd in enumerate(kinds) if kd == "usp4")
    if len(usp) not in (0, 2):
        raise ValueError("usp4 variables must come as a pair")
    n = len(kinds)
    dens = lp_const(n, 1)
    for pos in [(i,) for i, kd in enumerate(kinds) if kd != "usp4"] + ([usp] if usp else []):
        if kinds[pos[0]] not in _DENSITY:
            raise ValueError(f"unknown measure kind {kinds[pos[0]]}")
        factor = {}
        for e, c in _DENSITY[kinds[pos[0]]].items():
            full = [0] * n
            for i, x in zip(pos, e):
                full[i] = -x
            factor[(0, tuple(full))] = c
        dens = lp_mul(dens, factor)
    return {e: c for (_, e), c in dens.items()}, dens[(0, (0,) * n)]


def expectation(f: dict, kinds: tuple) -> Fraction:
    """Exact Haar expectation of a Laurent polynomial whose variable i has
    measure kinds[i]: one lookup per term in the kinds' density table, one
    division by its constant term.  The cyclotomic parts must cancel to a
    rational."""
    dens, ct = _density(tuple(kinds))
    acc = [0] * 8
    get = dens.get
    for (k, e), c in f.items():
        w = get(e)
        if w:
            acc[k] += c * w
    if any(acc[1:]):
        raise ValueError("expectation has a non-rational cyclotomic part")
    return Fraction(acc[0], ct)
