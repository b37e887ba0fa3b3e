"""Exact Laurent-polynomial arithmetic over Z[zeta_24].

The moment engine works with characteristic-polynomial coefficients of
4x4 unitary matrices whose eigenvalues are roots of unity times monomials
in torus variables.  Every root of unity that occurs has order dividing 24
(12th roots from the component translates, primitive 8th roots from the
constant-spectrum components of the U(1)xU(1) normalizer family), so a
single fixed ring Z[zeta_24] covers everything.

Elements of Z[zeta_24] are length-8 integer tuples on the power basis
1, z, ..., z^7 with z^8 = z^4 - 1.  Laurent polynomials are dicts mapping
exponent tuples to such coefficients.
"""

from __future__ import annotations

from cmath import exp as cexp
from fractions import Fraction
from math import pi

CYC_ZERO = (0, 0, 0, 0, 0, 0, 0, 0)
CYC_ONE = (1, 0, 0, 0, 0, 0, 0, 0)


def cyc_add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def cyc_neg(x: tuple) -> tuple:
    return tuple(-a for a in x)


def cyc_mul(x: tuple, y: tuple) -> tuple:
    # fast paths: most coefficients stay rational
    if x == CYC_ZERO or y == CYC_ZERO:
        return CYC_ZERO
    if x[1:] == (0,) * 7:
        c = x[0]
        return tuple(c * b for b in y)
    if y[1:] == (0,) * 7:
        c = y[0]
        return tuple(c * a for a in x)
    conv = [0] * 15
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    conv[i + j] += a * b
    # reduce z^k for k >= 8 with z^8 = z^4 - 1
    for k in range(14, 7, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            conv[k - 4] += c
            conv[k - 8] -= c
    return tuple(conv[:8])


def zeta24_power(j: int) -> tuple:
    """zeta_24^j on the power basis."""
    j %= 24
    vec = list(CYC_ZERO)
    if j < 8:
        vec[j] = 1
        return tuple(vec)
    z = zeta24_power(j - 8)
    # multiply by z^8 = z^4 - 1
    return cyc_add(cyc_mul(z, zeta24_power(4)), cyc_neg(z))


def cyc_rational(x: tuple) -> int:
    """The rational part of x, raising if x is not rational."""
    if any(x[1:]):
        raise ValueError(f"cyclotomic element {x} is not rational")
    return x[0]


def cyc_to_complex(x: tuple) -> complex:
    return sum(c * cexp(1j * pi * j / 12) for j, c in enumerate(x) if c)


# common constants
CYC_I = zeta24_power(6)
CYC_MINUS_ONE = zeta24_power(12)
CYC_MINUS_I = zeta24_power(18)
CYC_OMEGA = zeta24_power(8)


# ---------------------------------------------------------------------------
# Laurent polynomials: dict[exponent tuple] -> Z[zeta_24] coefficient


def lp_const(nvars: int, c: tuple) -> dict:
    if c == CYC_ZERO:
        return {}
    return {(0,) * nvars: c}


def lp_term(exps: tuple, c: tuple) -> dict:
    if c == CYC_ZERO:
        return {}
    return {exps: c}


def lp_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = cyc_add(out.get(e, CYC_ZERO), c)
        if s == CYC_ZERO:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def lp_neg(f: dict) -> dict:
    return {e: cyc_neg(c) for e, c in f.items()}


def lp_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = cyc_mul(c1, c2)
            s = cyc_add(out.get(e, CYC_ZERO), c)
            if s == CYC_ZERO:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def lp_pow(f: dict, n: int, nvars: int) -> dict:
    out = lp_const(nvars, CYC_ONE)
    base = f
    while n:
        if n & 1:
            out = lp_mul(out, base)
        base = lp_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def lp_is_constant(f: dict) -> bool:
    return all(not any(e) for e in f)


def lp_constant_value(f: dict):
    """Rational constant value of f, or None if not a rational constant."""
    if not f:
        return 0
    if not lp_is_constant(f):
        return None
    try:
        return cyc_rational(next(iter(f.values())))
    except ValueError:
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
    one = CYC_ONE
    m1 = cyc_neg(one)
    v1 = {(1, 0): one, (-1, 0): m1}
    v2 = {(0, 1): one, (0, -1): m1}
    d = {(1, 0): one, (-1, 0): one, (0, 1): m1, (0, -1): m1}
    w = lp_mul(lp_mul(lp_mul(v1, v1), lp_mul(v2, v2)), lp_mul(d, d))
    return {e: cyc_rational(c) for e, c in w.items()}


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
    for exps, coeff in f.items():
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
            for i in range(8):
                if coeff[i]:
                    acc[i] += w * coeff[i]
    if any(acc[1:]):
        raise ValueError("expectation has a non-rational cyclotomic part")
    return acc[0]
