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
"""

from __future__ import annotations

from fractions import Fraction
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


def lp_constant_value(f: dict):
    """Rational constant value of f, or None if not a rational constant."""
    if all(k == 0 and not any(e) for k, e in f):
        return sum(f.values())
    return None


# ---------------------------------------------------------------------------
# Expectation functionals.  Each torus variable carries one of the measure
# kinds below; "usp4" variables come in pairs sharing the joint Weyl measure
# of USp(4) restricted to the maximal torus.

MEASURE_KINDS = ("circle", "su2", "su2sqrt", "usp4")


def _su2_moment(j: int) -> Fraction:
    # E[v^j] under the SU(2) Weyl measure (2/pi) sin^2
    if j == 0:
        return Fraction(1)
    if abs(j) == 2:
        return Fraction(-1, 2)
    return Fraction(0)


def _single_moment(kind: str, j: int) -> Fraction:
    if kind == "circle":
        return Fraction(1) if j == 0 else Fraction(0)
    if kind == "su2":
        return _su2_moment(j)
    if kind == "su2sqrt":
        # h stands for a square root of an SU(2) eigenvalue; only even
        # powers of h occur in symmetric functions of {h,-h,1/h,-1/h}
        return _su2_moment(j // 2) if j % 2 == 0 else Fraction(0)
    raise ValueError(f"unknown measure kind {kind}")


def _usp4_weight_table() -> dict:
    """Laurent expansion of the USp(4) torus weight
    (v1-1/v1)^2 (v2-1/v2)^2 (v1+1/v1-v2-1/v2)^2."""
    v1 = {(0, (1, 0)): 1, (0, (-1, 0)): -1}
    v2 = {(0, (0, 1)): 1, (0, (0, -1)): -1}
    d = {(0, (1, 0)): 1, (0, (-1, 0)): 1, (0, (0, 1)): -1, (0, (0, -1)): -1}
    w = lp_mul(lp_mul(lp_mul(v1, v1), lp_mul(v2, v2)), lp_mul(d, d))
    return {e: c for (_, e), c in w.items()}


_USP4_W = _usp4_weight_table()
_USP4_CT = _USP4_W[(0, 0)]  # = 8


def usp4_joint_moment(j: int, k: int) -> Fraction:
    """E[v1^j v2^k] for the joint torus measure of USp(4)."""
    return Fraction(_USP4_W.get((-j, -k), 0), _USP4_CT)


def expectation(f: dict, kinds: tuple) -> Fraction:
    """Exact Haar expectation of a Laurent polynomial whose variable i has
    measure kinds[i].  The cyclotomic parts must cancel to a rational."""
    usp_idx = tuple(i for i, kd in enumerate(kinds) if kd == "usp4")
    if len(usp_idx) not in (0, 2):
        raise ValueError("usp4 variables must come as a pair")
    acc = [Fraction(0)] * 8
    for (k, exps), c in f.items():
        w = Fraction(1)
        for i, kd in enumerate(kinds):
            if kd == "usp4":
                continue
            w *= _single_moment(kd, exps[i])
            if not w:
                break
        if w and usp_idx:
            w *= usp4_joint_moment(exps[usp_idx[0]], exps[usp_idx[1]])
        if w:
            acc[k] += w * c
    if any(acc[1:]):
        raise ValueError("expectation has a non-rational cyclotomic part")
    return acc[0]
