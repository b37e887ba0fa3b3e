"""p-adic machinery for the Dwork-pencil hypergeometric motives.

Computes the finite-field hypergeometric trace

    H_q(alpha; beta | z) = 1/(1-q) * sum_{m=0}^{q-2} (-p)^(eta_m) q^(xi_m)
                           * prod_j (alpha_j)*_m / (beta_j)*_m * Teich(z)^m

for q = p or p^2, through the p-adic gamma function evaluated at fixed
precision p^k.  The trace at q = p gives the L-polynomial coefficient
c1 = -H_p; the pair (H_p, H_{p^2}) mod p^4 gives c2 = (H_p^2 - H_{p^2})/(2p).

Gamma values come from one of two interchangeable backends:

* GammaTables: factorial-type tables of length p plus a cubic series for
  Gamma_p on p*Z_p.  O(p) setup, O(1) per value.  Needs p >= 5 at
  precision >= 3 (the series coefficients involve a division by 6).
* GammaProductTable: the raw product table Gamma_p(n) for n < p^k.  Used
  for small p, where the c2 window [-4p^3, 12p^3] forces precision
  beyond p^4 (k = 5 for p <= 13, k = 6 for p = 3).

H_p has one kernel at every precision and on either backend: hp_poly sums
the banded one-variable series, where the term at m carries p^e with e
stepping up at the band cuts floor((i p + 5 - i)/5), so only the m below
the k-th cut survive mod p^k; hp_fast evaluates that polynomial at
Teich(z).  dwork_c1 runs it at k = 2 (p > 64) or k = 4, and dwork_lpoly at
the precision of its H_{p^2} backend.  For p >= 17 the O(p^2) sum
H_{p^2} mod p^4 runs in one numpy int64 kernel (_dwork_hp2), block by
block over m, exact for p^4 < 2^50 (p <= HP2_MAX_P = 5791).

The generic Fraction-based trace_Hq computes H_q from the definitions.
Production calls it only for H_{p^2} at p <= 13; everywhere else it is the
oracle the test suite checks both kernels against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

from .ntkernel import PadicInt, rational_mod, teichmuller
from .records import ConsistencyError, DegenerateFiber, LPoly

ONE_FIFTH = Fraction(1, 5)
DWORK_ALPHA = (ONE_FIFTH, 2 * ONE_FIFTH, 3 * ONE_FIFTH, 4 * ONE_FIFTH)
DWORK_BETA = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


@dataclass(frozen=True)
class HGParams:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]


DWORK = HGParams(DWORK_ALPHA, DWORK_BETA)


@dataclass(frozen=True)
class HValue:
    value: PadicInt
    q: int


@dataclass(frozen=True)
class HPoly:
    """H_p(z) as a polynomial in Teich(z), coefficients mod p^k."""

    p: int
    coeffs: tuple[int, ...]
    k: int


def _frac(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


# ---------------------------------------------------------------------------
# gamma backends


class GammaTables:
    """Gamma_p mod p^k via factorial tables and the series on p*Z_p.

    F[n] = n!,  T[n] = n! * e_1(1, 1/2, ..., 1/n),  U2/U3 the analogous
    second and third elementary symmetric sums (all mod p^k), so that

        prod_{j=1}^{n} (py + j) = F[n] + (py) T[n] + (py)^2 U2[n] + (py)^3 U3[n]

    exactly mod p^4.  The series Gamma_p(py) = 1 + a1 y + a2 y^2 + a3 y^3
    holds mod p^4 with
        a2 = -((p-1)! + 1/(p-1)! + 2)/2
        a1 = -(8 (p-1)! + (2p)!/(2p^2) + 4 a2 + 7)/6
        a3 = -((p-1)! + 1 + a1 + a2)
    and reduces mod p^2 to Gamma_p(py) = 1 + (1 + 1/(p-1)!) y.
    """

    def __init__(self, p: int, k: int):
        if k not in (1, 2, 3, 4):
            raise ValueError(f"unsupported precision {k}")
        if k >= 3 and p < 5:
            raise ValueError("series tables need p >= 5 at precision >= 3")
        self.p = p
        self.k = k
        pk = p**k
        self.pk = pk
        F = [1] * p
        T = [0] * p
        U2 = [0] * p
        U3 = [0] * p
        for n in range(1, p):
            F[n] = F[n - 1] * n % pk
            T[n] = (T[n - 1] * n + F[n - 1]) % pk
            if k >= 3:
                U2[n] = (U2[n - 1] * n + T[n - 1]) % pk
                U3[n] = (U3[n - 1] * n + U2[n - 1]) % pk
        self.F, self.T, self.U2, self.U3 = F, T, U2, U3
        w1 = F[p - 1]
        if k == 1:
            self.a1 = self.a2 = self.a3 = 0
        elif k == 2:
            self.a1 = (1 + pow(w1, -1, pk)) % pk
            self.a2 = self.a3 = 0
        else:
            # (2p)!/(2p^2) = prod of 1..2p with the factors p, 2p removed
            w2 = 1
            for j in range(1, 2 * p + 1):
                if j != p and j != 2 * p:
                    w2 = w2 * j % pk
            a2 = -(w1 + pow(w1, -1, pk) + 2) * pow(2, -1, pk) % pk
            a1 = -(8 * w1 + w2 + 4 * a2 + 7) * pow(6, -1, pk) % pk
            a3 = -(w1 + 1 + a1 + a2) % pk
            self.a1, self.a2, self.a3 = a1, a2, a3

    def gamma_int(self, xhat: int) -> int:
        """Gamma_p(x) mod p^k for the residue xhat of x."""
        p, pk = self.p, self.pk
        x0 = xhat % p
        y = xhat // p
        s = (1 + y * (self.a1 + y * (self.a2 + y * self.a3))) % pk
        if x0 == 0:
            return s
        i = x0 - 1
        py = xhat - x0
        g = (self.F[i] + py * (self.T[i] + py * (self.U2[i] + py * self.U3[i]))) % pk
        g = g * s % pk
        return pk - g if x0 & 1 else g

    def gamma_frac(self, x: Fraction) -> int:
        return self.gamma_int(rational_mod(x.numerator, x.denominator, self.pk))


class GammaProductTable:
    """Gamma_p tabulated at every residue mod p^k from the product formula
    Gamma_p(n+1) = -n Gamma_p(n) (p not dividing n) / -Gamma_p(n) (p | n).
    Stored as int64 (p^k < 2^63), 8 bytes a residue."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        pk = p**k
        self.pk = pk
        G = array("q", [1]) * pk
        g = 1
        for n in range(1, pk):
            prev = n - 1
            g = g * (pk - prev) % pk if prev % p else pk - g
            G[n] = g
        self.G = G

    def gamma_int(self, xhat: int) -> int:
        return self.G[xhat]

    def gamma_frac(self, x: Fraction) -> int:
        return self.G[rational_mod(x.numerator, x.denominator, self.pk)]


def _gamma_backend(p: int, k: int):
    if p <= 13 or k > 4:
        return GammaProductTable(p, k)
    return GammaTables(p, k)


# ---------------------------------------------------------------------------
# the generic trace sum (the oracle)


def _prime_power(q: int) -> tuple[int, int]:
    for f in (1, 2, 3):
        p = round(q ** (1.0 / f))
        if p**f == q and p > 1 and all(p % d for d in range(2, int(p**0.5) + 1)):
            return p, f
    raise ValueError(f"q={q} is not p, p^2 or p^3 for a prime p")


def trace_Hq(params: HGParams, z: Fraction | int, q: int, precision: int,
             backend: GammaTables | GammaProductTable | None = None) -> HValue:
    """The full hypergeometric trace sum, computed from the definitions.

    Exact-rational bookkeeping for the fractional parts; gamma values at
    precision p^precision, from `backend` when given (it must be at that
    precision) or from a fresh one.  O(q) gamma evaluations.  Production
    calls it only for q = p^2 at p <= 13; hp_fast (q = p) and _dwork_hp2
    (q = p^2, p >= 17) must agree with it (asserted in the tests).
    """
    p, f = _prime_power(q)
    k = precision
    backend = backend or _gamma_backend(p, k)
    pk = backend.pk
    z = Fraction(z)
    if z.denominator % p == 0 or z.numerator % p == 0:
        raise ValueError(f"z={z} is not a p-adic unit at p={p}")
    for x in params.alpha + params.beta:
        if x.denominator % p == 0:
            raise ValueError(f"parameter {x} not p-integral at p={p}")
    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, k)
    # constant parts of eta_m and of the Pochhammer ratios (their m=0 values)
    ca = 1
    eta0_a = Fraction(0)
    for a in params.alpha:
        for v in range(f):
            fr = _frac(p**v * a)
            eta0_a += fr
            ca = ca * backend.gamma_frac(fr) % pk
    cb = 1
    eta0_b = Fraction(0)
    for b in params.beta:
        for v in range(f):
            fr = _frac(p**v * b)
            eta0_b += fr
            cb = cb * backend.gamma_frac(fr) % pk
    zero_betas = sum(1 for b in params.beta if b == 0)
    total = 0
    for m in range(q - 1):
        delta = Fraction(m, 1 - q)
        eta_a = -eta0_a
        num = 1
        for a in params.alpha:
            for v in range(f):
                fr = _frac(p**v * (a + delta))
                eta_a += fr
                num = num * backend.gamma_frac(fr) % pk
        eta_b = -eta0_b
        den = 1
        for b in params.beta:
            for v in range(f):
                fr = _frac(p**v * (b + delta))
                eta_b += fr
                den = den * backend.gamma_frac(fr) % pk
        eta = eta_a - eta_b
        if eta.denominator != 1:
            raise ConsistencyError(f"eta_m not an integer at m={m}")
        xi = zero_betas - sum(1 for b in params.beta if b + delta == 0)
        e = int(eta) + f * xi
        if e < 0:
            raise ConsistencyError(f"negative net p-power at m={m}")
        if e >= k:
            continue
        term = p**e * num * cb % pk * pow(den * ca % pk, -1, pk) % pk
        term = term * pow(tz, m, pk) % pk
        total = (total - term if int(eta) & 1 else total + term) % pk
    h = total * pow(1 - q, -1, pk) % pk
    return HValue(PadicInt(h, p, k), q)


# ---------------------------------------------------------------------------
# the banded H_p kernel, at any precision


def _hp_coeffs(p: int, tables: GammaTables | GammaProductTable) -> list[int]:
    """The Teich(z) coefficients of H_p(Dwork | z) mod p^k, up to the band cut.

    The term at m carries p^e, e = eta_m + 4 from the grid numerators of
    {j/5 + m/(1-p)} and {m/(1-p)} over D = 5(p-1); e steps from 0 to 4 at
    the cuts floor((i p + 5 - i)/5), so the terms past the k-th cut vanish
    mod p^k.  The beta gamma is not inverted: Gamma_p(x) Gamma_p(1-x) = +-1
    and the sign drops out of its fourth power.  `tables` is any gamma
    backend (gamma_int, pk and k) at the wanted precision.
    """
    if p == 5 or p == 2:
        raise ValueError("p = 2, 5 are bad for the Dwork parameters")
    k, pk = tables.k, tables.pk
    gamma = tables.gamma_int
    d = 5 * (p - 1)
    invd = pow(d, -1, pk)
    cut = min(p - 1, (k * p + 5 - k) // 5)
    na = [j * (p - 1) for j in (1, 2, 3, 4)]
    sa0 = sum(na)
    nb = 0
    ca = 1  # prod_j Gamma_p(j/5), the m = 0 value of the alpha product
    for n in na:
        ca = ca * gamma(n * invd % pk) % pk
    inv1mp = pow(1 - p, -1, pk)
    scale = pow(ca, -1, pk) * inv1mp % pk
    p_pows = [p**e for e in range(k)]
    coeffs = [inv1mp]
    for m in range(1, cut):
        for j in range(4):
            na[j] = (na[j] - 5) % d
        nb = (nb - 5) % d
        e, rem = divmod(sum(na) - sa0 - 4 * nb + 4 * d, d)
        if rem:
            raise ConsistencyError(f"eta_m not an integer at m={m}, p={p}")
        if not 0 <= e < k:
            raise ConsistencyError(f"net p-power {e} at m={m} is outside [0, {k}) before the "
                                   f"band cut {cut}, p={p}")
        g = 1
        for n in na:
            g = g * gamma(n * invd % pk) % pk
        b = gamma((d - nb) * invd % pk)  # Gamma_p(1 - nb/D)
        b = b * b % pk
        term = p_pows[e] * g % pk * (b * b % pk) % pk * scale % pk
        coeffs.append(-term % pk if e & 1 else term)  # (-1)^eta_m = (-1)^e
    return coeffs


def hp_poly(p: int, tables: GammaTables | GammaProductTable | None = None) -> HPoly:
    """H_p as a polynomial in Teich(z): p - 1 coefficients mod p^k, zero from
    the band cut on.  Default tables: GammaTables(p, 2)."""
    tables = tables or GammaTables(p, 2)
    coeffs = _hp_coeffs(p, tables)
    return HPoly(p, tuple(coeffs) + (0,) * (p - 1 - len(coeffs)), tables.k)


def hp_fast(z: Fraction | int, p: int,
            tables: GammaTables | GammaProductTable | None = None) -> HValue:
    """H_p(Dwork | z) mod p^k, k the precision of `tables` (default
    GammaTables(p, 2)): the hp_poly coefficients evaluated at Teich(z).
    O(p) gamma values and ring operations."""
    z = Fraction(z)
    if z.denominator % p == 0 or z.numerator % p == 0:
        raise ValueError(f"z={z} is not a unit at {p}")
    tables = tables or GammaTables(p, 2)
    pk = tables.pk
    coeffs = _hp_coeffs(p, tables)
    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, tables.k)
    return HValue(PadicInt(_horner_eval(coeffs, tz, pk), p, tables.k), p)


# --- multipoint evaluation -------------------------------------------------


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
            a[i] = 0
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % mod
        else:
            a[i] = 0
    return [c % mod for c in a[:db]] if db > 0 else []


def _multipoint_tree(coeffs: list[int], points: list[int], mod: int) -> list[int]:
    """Subproduct-tree multipoint evaluation over Z/mod."""
    n = len(points)
    if n == 0:
        return []
    # leaves are the monic linear factors (x - t)
    layer = [[(-t) % mod, 1] for t in points]
    tree = [layer]
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(_poly_mul(layer[i], layer[i + 1], mod))
        if len(layer) % 2:
            nxt.append(layer[-1])
        tree.append(nxt)
        layer = nxt
    # push remainders down the tree
    rems = [list(coeffs)]
    for level in reversed(tree[:-1]):
        new_rems = []
        idx = 0
        parent = 0
        while idx < len(level):
            if idx + 1 < len(level):
                r = rems[parent]
                new_rems.append(_poly_rem(r, level[idx], mod))
                new_rems.append(_poly_rem(r, level[idx + 1], mod))
                idx += 2
            else:
                new_rems.append(rems[parent])
                idx += 1
            parent += 1
        rems = new_rems
    out = []
    for r in rems:
        out.append(r[0] % mod if r else 0)
    return out


def _horner_eval(coeffs: tuple[int, ...], t: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % mod
    return acc


def batch_evaluate(poly: HPoly, p: int, force: str | None = None) -> dict[int, HValue]:
    """H_p(z) mod p^k for every z in (Z/p)^*, evaluating the Teich(z) polynomial.

    Subproduct-tree path for p > 64, plain Horner otherwise (or force one
    with force='tree'/'horner'); the two agree bit-exactly.
    """
    pk = p**poly.k
    zs = list(range(1, p))
    points = [teichmuller(z, p, poly.k) for z in zs]
    method = force or ("tree" if p > 64 else "horner")
    if method == "tree":
        vals = _multipoint_tree(list(poly.coeffs), points, pk)
    else:
        vals = [_horner_eval(poly.coeffs, t, pk) for t in points]
    return {z: HValue(PadicInt(v, p, poly.k), p) for z, v in zip(zs, vals)}


# ---------------------------------------------------------------------------
# the production H_{p^2} mod p^4 kernel (p >= 17)

HP2_MAX_P = 5791  # the largest prime with p^4 < 2^50, the range of _mulmod
# m values per block: small enough for the temporaries to stay in cache
# (about 3 MB of peak RSS); a block's kept terms are each at most
# p^4 < 2^50, so their int64 sum stays below 2^61
_HP2_BLOCK = 1 << 11


def _mulmod(a, b, m: int):
    """a * b mod m, exactly, for an int64 array a and an int64 array or int
    b with 0 <= a, b < m < 2^50.

    The float64 quotient a * (b * (1/m)) carries three roundings of
    relative size 2^-53 on a value below 2^50, so it is within 3/8 of a*b/m
    and its nearest integer within 7/8.  The remainder, formed with
    wrapping int64 products, therefore lies in (-m, m); one correction
    (adding m where the sign bit is set) lifts it to [0, m).
    """
    import numpy as np

    r = a * b - np.rint(a * (b * (1.0 / m))).astype(np.int64) * m
    r += (r >> 63) & m
    return r


def _dwork_hp2(z: Fraction, p: int, tables: GammaTables) -> int:
    """H_{p^2}(Dwork | z) mod p^4 from precision-4 tables, in numpy int64.

    Walks m = 1..p^2-2 in blocks of _HP2_BLOCK.  In each block the ten
    fractional-part numerators on the grid D = 5(p^2-1) (eight alpha, two
    beta) and their wrap counts come in closed form; the wraps give the net
    p-power e_m, and only the terms with e_m < 4 get gamma work.  Beta gamma
    values are not inverted: Gamma_p(x) Gamma_p(1-x) = (-1)^x0, and the sign
    drops out of their fourth power.  Gamma_p(x0 + p y) mod p^4 is one cubic
    in p y: the factorial tables times the series on p Z_p, tabulated by x0.

    Exact for p <= HP2_MAX_P: p^4 < 2^50 is the range of _mulmod, every
    other int64 intermediate is below 2p^4 and a block's sum below 2^61.
    Larger p raise ValueError.
    """
    if p > HP2_MAX_P:
        raise ValueError(f"the int64 H_(p^2) kernel needs p^4 < 2^50, i.e. p <= {HP2_MAX_P}; "
                         f"got p={p}")
    import numpy as np

    q = p * p
    p3, pk = p**3, tables.pk
    d = 5 * (q - 1)
    invd = pow(d, -1, pk)
    # Gamma_p(py) = 1 + b1 (py) + b2 (py)^2 + b3 (py)^3 with b_i = a_i / p^i
    if tables.a1 % p or tables.a2 % q or tables.a3 % p3:
        raise ConsistencyError(f"gamma series coefficients not p-adically small at p={p}")
    b1, b2, b3 = tables.a1 // p, tables.a2 // q, tables.a3 // p3
    # coefficients of prod_{0<j<x0} (py + j) at index x0, then times the series
    F, T = [1] + tables.F[:-1], [0] + tables.T[:-1]
    U2, U3 = [0] + tables.U2[:-1], [0] + tables.U3[:-1]
    c0 = np.array(F, dtype=np.int64)
    c1 = np.array([(t + f * b1) % p3 for f, t in zip(F, T)], dtype=np.int64)
    c2 = np.array([(u + t * b1 + f * b2) % q for f, t, u in zip(F, T, U2)], dtype=np.int64)
    c3 = np.array([(v + u * b1 + t * b2 + f * b3) % p for f, t, u, v in zip(F, T, U2, U3)],
                  dtype=np.int64)

    def gamma(n):
        """(-1)^x0 Gamma_p(n/D) mod p^4, and x0."""
        x = _mulmod(n, invd, pk)
        x0, y = x % p, x // p
        h = (c2[x0] + p * (y % p * c3[x0] % p)) % q * (y % q) % q
        h = _mulmod(y, (c1[x0] + p * h) % p3, p3)
        return (c0[x0] + p * h) % pk, x0

    # grid numerators at m: (A - m S) mod D, rows (j, v) for alpha = j/5 and
    # the Frobenius twist p^v, then beta = 0 at v = 0, 1
    A = np.array([p**v * j * (q - 1) % d for j in (1, 2, 3, 4) for v in (0, 1)] + [0, 0],
                 dtype=np.int64)[:, None]
    S = np.array([5, 5 * p] * 5, dtype=np.int64)[:, None]
    ca = 1
    for n in A[:8, 0].tolist():
        ca = ca * tables.gamma_int(n * invd % pk) % pk
    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, 4)
    tp = [1] * (p - 1)  # Teich(z)^(p-1) = 1
    for j in range(1, p - 1):
        tp[j] = tp[j - 1] * tz % pk
    tpow = np.array(tp, dtype=np.int64)
    ppow = np.array([p**e for e in range(4)], dtype=np.int64)
    pmod = pk // ppow
    total = ca  # the m = 0 term times ca (divided out at the end)
    for m0 in range(1, q - 1, _HP2_BLOCK):
        m = np.arange(m0, min(m0 + _HP2_BLOCK, q - 1), dtype=np.int64)
        floors, n = np.divmod(A - S * m, d)
        # the net p-power eta_m(alpha) - eta_m(beta) + 2 xi_m (xi_m = 4 for
        # m >= 1) is 8 plus the alpha wraps minus 4 times the beta wraps
        e = 8 - floors[:8].sum(axis=0) + 4 * floors[8:].sum(axis=0)
        if (e < 0).any():
            raise ConsistencyError(f"negative net p-power at m={m[e < 0][0]}, p={p}")
        keep = e < 4
        m, e, n = m[keep], e[keep], n[:, keep]
        n[8:] = d - n[8:]  # 1 - beta
        g, x0 = gamma(n)
        g = _mulmod(g[0::2], g[1::2], pk)  # four alpha pairs and the beta pair
        b = _mulmod(g[4], g[4], pk)
        g = _mulmod(g[:2], g[2:4], pk)
        t = _mulmod(_mulmod(g[0], g[1], pk), _mulmod(b, b, pk), pk)
        t = _mulmod(t, tpow[m % (p - 1)], pk) % pmod[e] * ppow[e]
        # (-1)^eta_m with eta_m = e - 8, times the alpha signs (-1)^x0
        total += int(np.where((e + x0[:8].sum(axis=0)) & 1, pk - t, t).sum())
    return total * pow(ca, -1, pk) % pk * pow(1 - q, -1, pk) % pk


# ---------------------------------------------------------------------------
# Dwork L-polynomials


def _check_dwork_prime(z: Fraction, p: int) -> None:
    if p in (2, 5):
        raise DegenerateFiber(f"p={p} is excluded for the Dwork family")
    if z.denominator % p == 0:
        raise DegenerateFiber(f"z has a pole at p={p}")
    zn = z.numerator % p
    if zn == 0:
        raise DegenerateFiber(f"z = 0 mod {p}")
    if (z.numerator - z.denominator) % p == 0:
        raise DegenerateFiber(f"z = 1 mod {p} (psi^5 = 1, singular fiber)")


def _c2_precision(p: int) -> int:
    # need p^k > width 16 p^3 of the c2 window
    if p == 3:
        return 6
    if p <= 13:
        return 5
    return 4


def dwork_c1(z: Fraction | int, p: int) -> int:
    """c1 = -H_p, lifted to the integer obeying |c1| <= 4 p^(3/2).

    For p > 64 precision p^2 identifies c1; smaller p use precision p^4
    (4 p^(3/2) < p^4/2 always holds for odd p).
    """
    z = Fraction(z)
    _check_dwork_prime(z, p)
    h = hp_fast(z, p, _gamma_backend(p, 2 if p > 64 else 4)).value
    c1 = PadicInt(-h.value % h.modulus, p, h.k).balanced()
    if c1 * c1 > 16 * p**3:
        raise ConsistencyError(f"c1={c1} violates the Weil bound at p={p}")
    return c1


def dwork_lpoly(z: Fraction | int, p: int) -> LPoly:
    """Full L-polynomial coefficient pair (c1, c2) of the Dwork-pencil
    motive at z: c1 = -H_p and c2 = (H_p^2 - H_{p^2})/(2p), both lifted
    through their Weil windows.  O(p^2) work (the H_{p^2} sum)."""
    z = Fraction(z)
    _check_dwork_prime(z, p)
    k = _c2_precision(p)
    pk = p**k
    if p <= 13:
        gammas = GammaProductTable(p, k)  # p^k residues: built once for both sums
        hp = hp_fast(z, p, gammas).value.value
        hp2 = trace_Hq(DWORK, z, p * p, k, gammas).value.value
    else:
        tables = GammaTables(p, 4)
        hp = hp_fast(z, p, tables).value.value
        hp2 = _dwork_hp2(z, p, tables)
    c1 = PadicInt(-hp % pk, p, k).balanced()
    if c1 * c1 > 16 * p**3:
        raise ConsistencyError(f"c1={c1} violates the Weil bound at p={p}")
    # lift H_p^2 - H_{p^2} into (-4p^3, 12p^3]
    w = (hp * hp - hp2) % pk
    hi = 12 * p**3
    if w > hi:
        w -= pk
    if not -4 * p**3 < w <= hi:
        raise ConsistencyError(f"2p*c2={w} outside the Weil window at p={p}")
    if w - pk > -4 * p**3:
        raise ConsistencyError(f"ambiguous c2 window lift at p={p}")
    c2, rem = divmod(w, 2 * p)
    if rem:
        raise ConsistencyError(f"H_p^2 - H_(p^2) not divisible by 2p at p={p}")
    return LPoly(p, c1, c2)

