"""p-adic machinery for the Dwork-pencil hypergeometric motives.

Computes the finite-field hypergeometric trace

    H_q(alpha; beta | z) = 1/(1-q) * sum_{m=0}^{q-2} (-p)^(eta_m) q^(xi_m)
                           * prod_j (alpha_j)*_m / (beta_j)*_m * Teich(z)^m

for q = p or p^2, through the p-adic gamma function evaluated at fixed
precision p^k.  The trace at q = p gives the L-polynomial coefficient
c1 = -H_p; the pair (H_p, H_{p^2}) mod p^4 gives c2 = (H_p^2 - H_{p^2})/(2p).

One gamma backend, GammaTables: Gamma_p(x0 + p y) mod p^k, k <= 4, as one
cubic in p y per residue x0, stepped up from the series on p*Z_p by the
functional equation.  O(p) setup, O(1) per value through gamma_list.

Both traces are polynomials in Teich(z) whose coefficients do not depend on z,
and Teich(z)^(p-1) = 1, so each is a vector of at most p - 1 coefficients mod
p^k.  One wrap count W(x) = floor((5x - 1)/(q - 1)) gives every p-power: the
term at m carries p^W(m) in H_p, and p^(W(m) + W(sigma(m))) in H_{p^2}, where
sigma(m) = pm mod (p^2 - 1), the Frobenius twist, swaps the base-p digits of m.
hp_poly sums the m with W(m) < k from two Gamma_p values a term, one wrap band
at a time: on band w, W = f = w, so every power of 5 is 1, the sign and p^w are
constants, and b = m/(p - 1) is an arithmetic progression.  hp2_poly
separates the two digits of m: a term is a sum of products of two factors,
each a polynomial in one digit from one Newton table, so the sum is four
crossing rows and 19 cyclic convolutions, each one big-integer product; O(p)
work at every p >= 7, the packed slots sized from p.  The Newton tables take
two Gamma_p values a point and one product for each further wrap count, and
each crossing row is summed run by run of constant wrap counts.  Both kernels
are pure Python: no Dwork path imports numpy, which would cost each process
about 0.13 s of CPU and add about half to its peak RSS.
dwork_c1 and dwork_lpoly share one row body: it takes Teich(z) once and
evaluates hp_poly at k = 2 (c1, p > 64) or k = 4, and hp2_poly at k = 4 for
c2, each by Horner, and lifts c1 and 2p c2 to integers; the LPoly it returns
checks the Weil windows.  Every trace is a plain int mod p^k.

At p <= 13 the c2 window [-4p^3, 12p^3] would need p^5 or p^6, which the
series tables do not reach.  A row depends on z only through z mod p, so
those primes have 26 non-degenerate rows, and both Dwork entry points read
them from the literal SMALL_PRIME_ROWS.  The definition-based trace that
certifies these rows and checks both kernels lives in the tests, with the
product-table gamma backend it runs on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .ntkernel import rational_mod, teichmuller
from .records import ConsistencyError, DegenerateFiber, LPoly

# ---------------------------------------------------------------------------
# the gamma backend


class GammaTables:
    """Gamma_p(x0 + py) mod p^k (k <= 4) as the cubic C0[x0] + C1[x0] (py) +
    C2[x0] (py)^2 + C3[x0] (py)^3, C_i mod p^(k-i), per residue x0 of x mod p.

    The series Gamma_p(py) = 1 + a1 y + a2 y^2 + a3 y^3 holds mod p^4 with
        a2 = -((p-1)! + 1/(p-1)! + 2)/2
        a1 = -(8 (p-1)! + (2p)!/(2p^2) + 4 a2 + 7)/6
        a3 = -((p-1)! + 1 + a1 + a2)
    and reduces mod p^2 to Gamma_p(py) = 1 + (1 + 1/(p-1)!) y.  The functional
    equation Gamma_p(x + 1) = -x Gamma_p(x) for a unit x, -Gamma_p(x) for x in
    p Z_p (Robert, A Course in p-adic Analysis, ch. VII), steps it to x0 = p - 1.
    """

    def __init__(self, p: int, k: int):
        if k not in (1, 2, 3, 4):
            raise ValueError(f"unsupported precision {k}")
        if k >= 3 and p < 5:
            raise ValueError("series tables need p >= 5 at precision >= 3")
        self.p, self.k, self.pk = p, k, p**k
        pk = self.pk

        def column(b, m, prev):
            # G_x0 = Gamma_p(x0 + py): G_1 = -G_0, then G_(x0+1) = -(x0 + py) G_x0, that
            # is C_i <- -(x0 C_i + C_(i-1)) mod p^(k-i), a column at a time (C_i = 0, i >= k)
            c = -b % m
            return [b % m, c] + [c := -(x0 * c + g) % m for x0, g in enumerate(prev[1:p - 1], 1)]

        # C0 = Gamma_p(x0), x0 = 0..p-1: G_1 = -1, then each step multiplies by -x0 = p^k - x0
        C = [[1, c := pk - 1] + [c := c * (pk - x0) % pk for x0 in range(1, p - 1)]]
        w1 = (-1) ** (p + 1) * (p - 1) * C[0][-1] % pk  # (p-1)! = (-1)^p Gamma_p(p)
        a1 = a2 = a3 = 0
        if k == 2:
            a1 = (1 + pow(w1, -1, pk)) % pk
        elif k > 2:
            w2 = w1  # (2p)!/(2p^2) = (p-1)! (p+1) ... (2p-1)
            for j in range(p + 1, 2 * p):
                w2 = w2 * j % pk
            a2 = -(w1 + pow(w1, -1, pk) + 2) * pow(2, -1, pk) % pk
            a1 = -(8 * w1 + w2 + 4 * a2 + 7) * pow(6, -1, pk) % pk
            a3 = -(w1 + 1 + a1 + a2) % pk
        self.a1, self.a2, self.a3 = a1, a2, a3
        if a1 % p or a2 % p**2 or a3 % p**3:  # a_i y^i = (a_i / p^i) (py)^i
            raise ConsistencyError(f"gamma series coefficients not p-adically small at p={p}")
        for i, b in enumerate((a1 // p, a2 // p**2, a3 // p**3)[: k - 1], 1):
            C.append(column(b, pk // p**i, C[-1]))
        self.C = tuple(C + [[0] * p] * (4 - k))

    def gamma_list(self, xs) -> list[int]:
        """Gamma_p(x) mod p^k for each residue x mod p^k in xs: the cubic of
        x0 = x mod p at py = x - x0."""
        p, pk = self.p, self.pk
        C0, C1, C2, C3 = self.C
        if self.k <= 2:  # C2 = C3 = 0
            return [(C0[x0 := x % p] + (x - x0) * C1[x0]) % pk for x in xs]
        return [(C0[x0 := x % p] + (py := x - x0) * (C1[x0] + py * (C2[x0] + py * C3[x0]))) % pk
                for x in xs]


# ---------------------------------------------------------------------------
# the wrap count, the term builder and the banded H_p kernel, at any precision


def _wraps(x, q: int):
    """W(x) = #{j in 1..4 : j(q - 1) < 5x}, 1 <= x <= q - 2: the wrapped alphas j/5 at x."""
    return (5 * x - 1) // (q - 1)


def _terms(tables: GammaTables, bs, w: int, f: int) -> list[int]:
    """u(b) = (-1)^w 5^(f - w) Gamma_p(b)^5 Gamma_p(V) mod p^k, V = w + 1 - 5b, for the
    residues b mod p^k in bs, a run of terms with one wrap count w and one
    f = floor((5 x0 + w)/p), x0 the low digit of the term's index.  The term
    builder of hp_poly: two Gamma_p values a term, through gamma_list,
    which takes residues, so V is reduced mod p^k: w + 1 - 5b leaves [0, p^k),
    and at the top of an H_p band, when p = 1 mod 5, it is a multiple of p^k."""
    pk = tables.pk
    c = (-1) ** w * pow(5, f - w, pk) % pk
    gv = tables.gamma_list([(w + 1 - 5 * b) % pk for b in bs])
    return [(g2 := g * g % pk) * g2 * g % pk * v * c % pk
            for g, v in zip(tables.gamma_list(bs), gv)]


def hp_poly(p: int, tables: GammaTables) -> list[int]:
    """H_p(Dwork | z) mod p^k as a polynomial in Teich(z), k the precision of
    `tables`: its coefficients of degree 0 up to the k-th band cut, at most p - 1.

    The term at m carries p^W(m) (_wraps; W(0) = 0), so it vanishes mod p^k
    from the cut on.  With u = m/(1-p), b = -u and V = {5u} = 5u + W(m) + 1,
    a term costs two Gamma_p values:

      coeff_m = -r^m p^W u(m; W)/(1 - p),  r = -omega(5)^(-5),

    u(m; W) = (-1)^W 5^(f-W) Gamma_p(b)^5 Gamma_p(V), f = floor((5m + W)/p),
    from _terms.

    * Gauss multiplication (Robert, A Course in p-adic Analysis, ch. VII):
      the alphas {j/5 + u}, j = 1..4, and 1 - b are the (V + i)/5, i = 0..4,
      so no wrapped alpha needs a correction:
      prod_{j>=1} Gamma_p({j/5 + u}) = eps_5 5^(1-R) c^Q Gamma_p(V) / Gamma_p(1 - b),
      V = R + pQ, 1 <= R <= p, c = 5^-(p-1), and eps_5 = prod_{j>=1} Gamma_p(j/5)
      cancels as the m = 0 alpha product.  R = 5m + W + 1 - fp, Q = f + 5u and
      c^(5u) = (5/omega(5))^(5m), so 5^(1-R) c^Q = 5^(f-W) omega(5)^(-5m).
    * Reflection, Gamma_p(x) Gamma_p(1-x) = (-1)^R(x):
      1/Gamma_p(1 - b) = (-1)^(m+1) Gamma_p(b); the betas give Gamma_p(b)^4.

    The terms go one wrap band at a time: band w holds the m with
    w(p - 1) < 5m <= (w + 1)(p - 1), where W(m) = w and f = w, so the 5-power
    is 1 and the sign and p^w are constants of the band.  1/(p - 1) = -S mod
    p^k, S = (p^k - 1)/(p - 1), so b = m/(p - 1) is the progression p^k - mS,
    in [0, p^k) for 1 <= m <= p - 2; m = 0 (b = 0) is a run of its own.  A
    band can be empty (band 1 at p = 3) with terms in the next; empty bands
    are skipped.

    `tables` is any gamma backend (gamma_list, p, pk, k) at the wanted precision.
    """
    if p == 5 or p == 2:
        raise ValueError("p = 2, 5 are bad for the Dwork parameters")
    k, pk = tables.k, tables.pk
    cut = min(p - 1, (k * p + 5 - k) // 5)  # W(m) < k iff 5m <= k(p-1) iff m < (kp + 5 - k)/5
    s = (pk - 1) // (p - 1)  # S: b = m/(p - 1) = p^k - mS
    runs = [(0, range(1))]  # m = 0: W = 0, b = 0
    for w in range(5):  # band w, W(m) = f = w
        lo, hi = w * (p - 1) // 5 + 1, min((w + 1) * (p - 1) // 5, cut - 1)
        runs.append((w, range(pk - lo * s, pk - (hi + 1) * s, -s)))  # empty when hi < lo
    r, scale = -pow(teichmuller(5, p, k), -5, pk), -pow(1 - p, -1, pk)
    coeffs = []
    for w, bs in runs:
        pw = p**w
        for u in _terms(tables, bs, w, w):
            coeffs.append(scale * pw * u % pk)  # r^m = (-1)^m omega(5)^(-5m)
            scale = scale * r % pk
    return coeffs


def _horner_eval(coeffs: list[int], t: int, mod: int) -> int:
    """The polynomial with the given coefficients (degree 0 first) at t, mod `mod`."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % mod
    return acc


# ---------------------------------------------------------------------------
# the H_{p^2} kernel, at any precision

def _pack(vals, nb: int) -> int:
    """sum_n vals[n] X^n at X = 2^(8 nb), for 0 <= vals[n] < X."""
    return int.from_bytes(b"".join(map(int.to_bytes, vals, repeat(nb), repeat("little"))),
                          "little")


def hp2_poly(p: int, tables: GammaTables) -> list[int]:
    """H_{p^2}(Dwork | z) mod p^k as a polynomial in Teich(z), k the precision
    of `tables`: its p - 1 coefficients, in O(p) work, for p >= 7.

    Teich(z)^(p-1) = 1, so the term at m, 0 <= m <= q - 2 (q = p^2), adds to
    the coefficient of degree m mod (p - 1).  The Frobenius twist {p(j/5 + u)},
    u = m/(1-q), is the alpha (pj mod 5)/5 at the base-p digit swap
    sigma(m) = pm mod (q - 1), which sends m = m0 + p m1 to m1 + p m0.  Gauss
    multiplication and reflection (as in hp_poly; the {j/5 + u}, j = 0..4, are
    the (V + i)/5, V = {5u}, so no wrapped alpha needs a correction) make the
    term r^(m0 + m1)/(1 - q) U(m) U(sigma(m)), r = -omega(5)^(-5), with

      U(x) = p^W u(b; W),  W = W(x),  u from _terms at b = x/(q - 1),

    and W(0) = 0, so the m = 0 term is U(0)^2 = 1.  Digit separation:

    * Mod p^4, b = -x(1 + p^2) and V are linear in x1 = floor(x/p) with slopes
      in p Z_p, so for each x0 and w, u(x0 + p x1; w) = sum_j D_j p^j C(x1, j)
      (Newton's form, D_j p^j the j-th forward difference in x1 at 0), and
      the term at m is the sum over i, j of
        p^(W + W' + i + j) [D_j(m0; W) C(m0, i)] [D_i(m1; W') C(m1, j)],
      W = W(m), W' = W(sigma(m)): 35 terms (W, W', i, j) with
      W + W' + i + j < k = 4, fewer at lower k.
    * The Newton stage: b does not depend on w, so Gamma_p(b)^5 Gamma_p(V_0),
      V_w = w + 1 - 5b, costs two gamma_list values a point x0 + p x1, and each
      next w one product: Gamma_p(V + 1) = -V Gamma_p(V), or -Gamma_p(V) when
      p | V.  D_j(x0; w) reads the rows x1 <= j, only where lev(x0) < k - w - j.
      (-1)^w 5^(f-w) is a constant on each run of x0 where f = floor((5 x0 + w)/p) is.
    * W(m0 + p m1) is lev(m1) = W(p m1) except on the rows m1 where 5m passes
      j(q - 1), j = 1..4; by symmetry W(sigma(m)) is lev(m0) off those columns.
      On a crossing row W and W' step only at a column c or at c + 1; on each
      run between, both factors are Newton sums over slices of the tables, and
      their products go to the classes m0 + m1 with weight 2 (the sigma image),
      or 1 on a meet with a column, a run of its own.
    * Every other point lies on level intervals lev(m0) = W', lev(m1) = W,
      where each (W, W', i, j) term is a cyclic convolution mod p - 1 of two
      vectors: one Kronecker product of packed integers.  (W', W, j, i) gives
      the same convolution, so one of each pair is taken, weight 2.  The
      products are summed in one integer, shifted to the intervals' starts,
      and folded mod p - 1 once.
    """
    if p < 7:
        raise ValueError(f"hp2_poly needs p >= 7 (at p = 3 the crossing rows coincide); got p={p}")
    q = p * p
    k, pk = tables.k, tables.pk
    lam = pow(q - 1, -1, pk)
    cross = [j * (q - 1) // (5 * p) for j in range(1, 5)]  # lev(y) = j - 1 on cross[j - 1]
    # gu[x1][x0] = Gamma_p(b)^5 Gamma_p(V_w), at w = 0 here, where lev(x0) < k - x1
    bs = [[lam * x % pk for x in range(p * x1, p * x1 + cross[k - 1 - x1] + 1)] for x1 in range(k)]
    gu = [[(g2 := g * g % pk) * g2 * g * v % pk for g, v in zip(
        tables.gamma_list(row), tables.gamma_list([(1 - 5 * b) % pk for b in row]))] for row in bs]
    # dn[w][j][x0] = D_j(x0; w) mod p^(k - j)
    dn = []
    for w in range(k):
        top = cross[k - 1 - w] + 1  # x0 < top: lev(x0) < k - w
        # the runs of f = floor((5 x0 + w)/p): x0 from ceil((fp - w)/5), f = 0..4
        starts = [min((f * p - w + 4) // 5, top) for f in range(5)] + [top]
        cx = sum(([(-1) ** w * pow(5, f - w, pk) % pk] * (starts[f + 1] - starts[f])
                  for f in range(5)), [])
        diffs = []
        for x1 in range(k - w):
            if w:  # Gamma_p(V_w) = -V_(w-1) Gamma_p(V_(w-1)), or -Gamma_p(V_(w-1)) when p | V_(w-1)
                gu[x1] = [(g * d if (d := 5 * b - w) % p else -g) % pk
                          for b, g in zip(bs[x1], gu[x1][:cross[k - 1 - w - x1] + 1])]
            diffs.append([g * c % pk for g, c in zip(gu[x1], cx)])
        dn.append([])
        for j in range(k - w):
            dn[w].append([d % pk // p**j for d in diffs[0]])
            diffs = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(diffs, diffs[1:])]
    levels = [(0, cross[0])] + [(cross[j] + 1, cross[j + 1]) for j in range(3)]
    binom = [[1] * p, list(range(p)), [m * (m - 1) // 2 for m in range(p)],
             [m * (m - 1) * (m - 2) // 6 for m in range(p)]]
    acc = [0] * (2 * p)  # the crossing-row terms by m0 + m1, folded with the slots
    for v, r in enumerate(cross[:k]):  # the crossing rows m1 = r, lev(r) = v; past them W >= k
        top = cross[k - 1 - v] + 1  # lev(m0) <= W(sigma(m)) < k - W(m) <= k - v
        # W(r + p m0) steps at a column m0 = c in cross or at c + 1, and so does W(m0 + p r):
        # with t = (v + 1)p mod 5 it reaches v + 1 where 5 m0 passes tp - v - 1, c = cross[t - 1]
        cuts = sorted({0, top} | {min(c + i, top) for c in cross for i in (0, 1)})
        for lo, hi in zip(cuts, cuts[1:]):  # a run of constant W = W(m), W' = W(sigma(m))
            w, ws = _wraps(lo + p * r, q), _wraps(r + p * lo, q)
            if w + ws < k:  # lev(m0) <= ws < k - w and lev(r) <= w < k - ws: both in dn
                # p^(W + W') U(m) = sum_j D_j(m0; W) p^(W + W' + j) C(r, j), and U(sigma(m)) =
                # sum_i D_i(r; W') p^i C(m0, i) weighted 2 (the sigma image) or 1 (a meet)
                ua = us = [0] * (hi - lo)
                for j in range(k - w - ws):  # D_i, D_j with i or j >= k - W - W' carry p^k
                    a = p ** (w + ws + j) * binom[j][r]
                    b = (1 if lo in cross else 2) * dn[ws][j][r] * p**j
                    ua = [x + a * d for x, d in zip(ua, dn[w][j][lo:hi])]
                    us = [x + b * t for x, t in zip(us, binom[j][lo:hi])]
                acc[lo + r:hi + r] = [x + y * z for x, y, z in zip(acc[lo + r:hi + r], ua, us)]
    nb = ((2 * k + 1) * p.bit_length() + 15) // 8  # a slot holds 38 p^(2k+1) < 2^(8 nb)
    total = 0
    for w in range(k):
        for ws in range(k - w):
            e = w + ws
            lo0, hi0 = levels[ws]  # m0: lev(m0) = W(sigma(m)) = ws
            lo1, hi1 = levels[w]  # m1: lev(m1) = W(m) = w
            for i in range(k - e):
                for j in range(k - e - i):
                    if (w, i) > (ws, j):
                        continue
                    mod = p ** (k - e - i - j)
                    a = [c * t % mod for c, t in zip(dn[w][j][lo0:hi0], binom[i][lo0:hi0])]
                    b = [c * t % mod for c, t in zip(dn[ws][i][lo1:hi1], binom[j][lo1:hi1])]
                    weight = 1 if (w, i) == (ws, j) else 2
                    total += (_pack(a, nb) * _pack(b, nb) * weight * p ** (e + i + j)
                              << 8 * nb * (lo0 + lo1))
    slots = total.to_bytes(2 * p * nb, "little")
    acc = [x + int.from_bytes(slots[n * nb:(n + 1) * nb], "little") for n, x in enumerate(acc)]
    r, scale = -pow(teichmuller(5, p, k), -5, pk), pow(1 - q, -1, pk)
    out = []
    for c in range(p - 1):  # class c: slots c + n(p - 1); r^c = (-1)^c omega(5)^(-5c)
        out.append(sum(acc[c::p - 1]) * scale % pk)
        scale = scale * r % pk
    return out


# ---------------------------------------------------------------------------
# Dwork L-polynomials

# (p, z mod p) -> (c1, c2) at the primes p <= 13, where the c2 window
# [-4p^3, 12p^3] needs precision p^5 or p^6, past the series tables.  A row
# depends on z only through z mod p; z = 0, 1 mod p are degenerate fibers.
# The tests regenerate all 26 rows from the definition-based trace.
SMALL_PRIME_ROWS = {
    (3, 2): (5, 15),
    (7, 2): (10, 60), (7, 3): (5, 55), (7, 4): (-35, 115), (7, 5): (-5, -30), (7, 6): (25, 50),
    (11, 2): (-14, -74), (11, 3): (-29, 66), (11, 4): (31, 131), (11, 5): (1, -14),
    (11, 6): (-9, -4), (11, 7): (-54, 266), (11, 8): (31, 206), (11, 9): (26, 236),
    (11, 10): (-14, 76),
    (13, 2): (85, 405), (13, 3): (-25, 275), (13, 4): (-120, 590), (13, 5): (-5, 160),
    (13, 6): (-5, 260), (13, 7): (10, -70), (13, 8): (-25, 100), (13, 9): (20, -90),
    (13, 10): (15, 120), (13, 11): (25, 100), (13, 12): (-15, -20),
}


def _check_dwork_prime(z: Fraction, p: int) -> None:
    if p in (2, 5):
        raise DegenerateFiber(f"p={p} is excluded for the Dwork family")
    if z.denominator % p == 0:
        raise DegenerateFiber(f"z has a pole at p={p}")
    if z.numerator % p == 0:
        raise DegenerateFiber(f"z = 0 mod {p}")
    if (z.numerator - z.denominator) % p == 0:
        raise DegenerateFiber(f"z = 1 mod {p} (psi^5 = 1, singular fiber)")


def _lift(w: int, pk: int, hi: int) -> int:
    """The integer = w mod pk in (hi - pk, hi], for 0 <= hi < pk."""
    w %= pk
    return w - pk if w > hi else w


def _dwork_row(z: Fraction | int, p: int, full: bool) -> LPoly:
    """The Dwork-pencil row at z and p, c2 None unless full: hp_poly (and
    hp2_poly) evaluated at Teich(z) and lifted to integers, LPoly judging the
    Weil windows; p <= 13 read SMALL_PRIME_ROWS."""
    z = Fraction(z)
    _check_dwork_prime(z, p)
    if p <= 13:
        c1, c2 = SMALL_PRIME_ROWS[p, rational_mod(z.numerator, z.denominator, p)]
        return LPoly(p, c1, c2 if full else None)
    # p^4 > 16 p^3, the c2 window's width, for p >= 17; p^2 identifies c1 for p > 64
    tables = GammaTables(p, 4 if full or p <= 64 else 2)
    pk = tables.pk
    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, tables.k)
    hp = _horner_eval(hp_poly(p, tables), tz, pk)
    c1 = _lift(-hp, pk, pk // 2)
    if not full:
        return LPoly(p, c1)
    # 2p c2 = H_p^2 - H_(p^2); for p >= 17 the lift window (12p^3 - p^4, 12p^3] holds
    # [-4p^3, 12p^3], so the lift is unique and LPoly's c2 check decides the rest
    w = _lift(hp * hp - _horner_eval(hp2_poly(p, tables), tz, pk), pk, 12 * p**3)
    c2, rem = divmod(w, 2 * p)
    if rem:
        raise ConsistencyError(f"H_p^2 - H_(p^2) not divisible by 2p at p={p}")
    return LPoly(p, c1, c2)


def dwork_c1(z: Fraction | int, p: int) -> int:
    """c1 = -H_p, lifted to (-p^k/2, p^k/2] and checked by LPoly: precision p^2
    identifies c1 for p > 64, smaller p use p^4 (4 p^(3/2) < p^4/2 for odd p),
    and p <= 13 read SMALL_PRIME_ROWS."""
    return _dwork_row(z, p, False).c1


def dwork_lpoly(z: Fraction | int, p: int) -> LPoly:
    """The full row LPoly(p, c1, c2) of the Dwork-pencil motive at z:
    c1 = -H_p and c2 = (H_p^2 - H_{p^2})/(2p), lifted to integers that LPoly
    checks.  O(p) work; p <= 13 read SMALL_PRIME_ROWS."""
    return _dwork_row(z, p, True)
