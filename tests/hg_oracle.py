"""The tests' oracles for the p-adic hypergeometric kernels.

trace_Hq computes H_q from the definitions, on the raw product table of
Gamma_p at small p or high precision; teich_eval evaluates a Teich(z)
polynomial at one z, and batch_evaluate at every z by a subproduct tree or
by Horner.  The package never imports this module: its kernels are checked
against it, and the Dwork rows at p <= 13 are regenerated from it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from stmotives import padic_hypergeom as ph
from stmotives.ntkernel import rational_mod, teichmuller
from stmotives.records import ConsistencyError

ONE_FIFTH = Fraction(1, 5)
DWORK_ALPHA = (ONE_FIFTH, 2 * ONE_FIFTH, 3 * ONE_FIFTH, 4 * ONE_FIFTH)
DWORK_BETA = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


@dataclass(frozen=True)
class HGParams:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]


DWORK = HGParams(DWORK_ALPHA, DWORK_BETA)


def _frac(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class GammaProductTable:
    """Gamma_p tabulated at every residue mod p^k from the product formula
    Gamma_p(n+1) = -n Gamma_p(n) (p not dividing n) / -Gamma_p(n) (p | n).
    Stored as int64 (p^k < 2^63), 8 bytes a residue."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.pk = p, k, p**k
        pk = self.pk
        G = array("q", [1]) * pk
        g = 1
        for n in range(1, pk):
            prev = n - 1
            g = g * (pk - prev) % pk if prev % p else pk - g
            G[n] = g
        self.G = G

    def gamma_list(self, xs) -> list[int]:
        return list(map(self.G.__getitem__, xs))


@functools.cache
def gamma_backend(p: int, k: int):
    """The oracle's gamma values mod p^k, built once per (p, k): the product
    table where the series tables do not reach (p <= 13 or k > 4)."""
    if p <= 13 or k > 4:
        return GammaProductTable(p, k)
    return ph.GammaTables(p, k)


# ---------------------------------------------------------------------------
# the generic trace sum


def _prime_power(q: int) -> tuple[int, int]:
    for f in (1, 2, 3):
        p = round(q ** (1.0 / f))
        if p**f == q and p > 1 and all(p % d for d in range(2, int(p**0.5) + 1)):
            return p, f
    raise ValueError(f"q={q} is not p, p^2 or p^3 for a prime p")


def trace_Hq(params: HGParams, z: Fraction | int, q: int, precision: int) -> int:
    """The full hypergeometric trace sum mod p^precision, computed from the
    definitions.

    Exact-rational bookkeeping for the fractional parts; gamma values at
    precision p^precision.  O(q) gamma evaluations.  The package's Teich(z)
    vectors hp_poly (q = p) and hp2_poly (q = p^2), evaluated at Teich(z) by
    teich_eval, must agree with it.
    """
    p, f = _prime_power(q)
    k = precision
    backend = gamma_backend(p, k)
    pk = backend.pk
    z = Fraction(z)
    if z.denominator % p == 0 or z.numerator % p == 0:
        raise ValueError(f"z={z} is not a p-adic unit at p={p}")
    for x in params.alpha + params.beta:
        if x.denominator % p == 0:
            raise ValueError(f"parameter {x} not p-integral at p={p}")
    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, k)

    def parts(xs, delta):  # the fractional parts {p^v (x + delta)}, v < f
        return [_frac(p**v * (x + delta)) for x in xs for v in range(f)]

    def gamma_prod(fracs):
        xs = [rational_mod(x.numerator, x.denominator, pk) for x in fracs]
        return math.prod(backend.gamma_list(xs)) % pk

    # constant parts of eta_m and of the Pochhammer ratios (their m=0 values)
    a0, b0 = parts(params.alpha, 0), parts(params.beta, 0)
    ca, cb = gamma_prod(a0), gamma_prod(b0)
    eta0 = sum(a0) - sum(b0)
    zero_betas = sum(1 for b in params.beta if b == 0)
    total = 0
    for m in range(q - 1):
        delta = Fraction(m, 1 - q)
        am, bm = parts(params.alpha, delta), parts(params.beta, delta)
        eta = sum(am) - sum(bm) - eta0
        if eta.denominator != 1:
            raise ConsistencyError(f"eta_m not an integer at m={m}")
        xi = zero_betas - sum(1 for b in params.beta if b + delta == 0)
        e = int(eta) + f * xi
        if e < 0:
            raise ConsistencyError(f"negative net p-power at m={m}")
        if e >= k:
            continue
        term = p**e * gamma_prod(am) * cb % pk * pow(gamma_prod(bm) * ca % pk, -1, pk) % pk
        term = term * pow(tz, m, pk) % pk
        total = (total - term if int(eta) & 1 else total + term) % pk
    return total * pow(1 - q, -1, pk) % pk


# ---------------------------------------------------------------------------
# evaluation of Teich(z) polynomials


def teich_eval(coeffs: list[int], z: Fraction | int, p: int, k: int) -> int:
    """The Teich(z) polynomial `coeffs` (hp_poly's or hp2_poly's, at
    precision k) at z, mod p^k."""
    z, pk = Fraction(z), p**k
    return ph._horner_eval(coeffs, teichmuller(rational_mod(z.numerator, z.denominator, pk), p, k), pk)


def _poly_mul(a: list[int], b: list[int], mod: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % mod for c in out]


def _poly_rem(a: list[int], b: list[int], mod: int) -> list[int]:
    """a mod b for monic b."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % mod
        if c:
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % mod
    return [c % mod for c in a[:db]]


def _multipoint_tree(coeffs: list[int], points: list[int], mod: int) -> list[int]:
    """Subproduct-tree multipoint evaluation over Z/mod."""
    if not points:
        return []
    # leaves are the monic linear factors (x - t); a level's odd node out moves up as it is
    tree = [[[-t % mod, 1] for t in points]]
    while len(tree[-1]) > 1:
        low = tree[-1]
        tree.append([_poly_mul(low[i], low[i + 1], mod) for i in range(0, len(low) - 1, 2)]
                    + low[len(low) - len(low) % 2:])
    # push remainders down the tree: node i's parent is node i // 2 one level up
    rems = [list(coeffs)]
    for level in reversed(tree[:-1]):
        rems = [_poly_rem(rems[i // 2], node, mod) for i, node in enumerate(level)]
    return [r[0] % mod if r else 0 for r in rems]


def batch_evaluate(coeffs: tuple[int, ...], p: int, k: int,
                   force: str | None = None) -> dict[int, int]:
    """H_p(z) mod p^k for every z in (Z/p)^*, evaluating the Teich(z)
    polynomial `coeffs` (hp_poly's, at precision k).

    Subproduct-tree path for p > 64, plain Horner otherwise (or force one
    with force='tree'/'horner'); the two agree bit-exactly.
    """
    pk = p**k
    zs = list(range(1, p))
    points = [teichmuller(z, p, k) for z in zs]
    method = force or ("tree" if p > 64 else "horner")
    if method == "tree":
        vals = _multipoint_tree(list(coeffs), points, pk)
    else:
        vals = [ph._horner_eval(coeffs, t, pk) for t in points]
    return dict(zip(zs, vals))
