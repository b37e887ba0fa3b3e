"""p-adic machinery for the Dwork-pencil hypergeometric motives.

Computes the finite-field hypergeometric trace

    H_q(alpha; beta | z) = 1/(1-q) * sum_{m=0}^{q-2} (-p)^(eta_m) q^(xi_m)
                           * prod_j (alpha_j)*_m / (beta_j)*_m * Teich(z)^m

for q = p or p^2, through the p-adic gamma function evaluated at fixed
precision p^k.  The trace at q = p gives the L-polynomial coefficient
c1 = -H_p; the pair (H_p, H_{p^2}) mod p^4 gives c2 = (H_p^2 - H_{p^2})/(2p).

One gamma backend, GammaTables: Gamma_p(x0 + p y) mod p^k, k <= 4, as one
cubic in p y per residue x0, stepped up from the series on p*Z_p by the
functional equation.  O(p) setup, O(1) per value, through a pure-Python
gamma_list (the H_p kernel) and an int64-array gamma_array (the H_{p^2} kernel).

Both traces are polynomials in Teich(z) whose coefficients do not depend on z,
and Teich(z)^(p-1) = 1, so each is a vector of at most p - 1 coefficients mod
p^k.  One wrap count W(x) = floor((5x - 1)/(q - 1)) gives every p-power: the
term at m carries p^W(m) in H_p, and p^(W(m) + W(sigma(m))) in H_{p^2}, where
sigma(m) = pm mod (p^2 - 1), the Frobenius twist, swaps the base-p digits of m.
hp_poly sums the m with W(m) < k from two Gamma_p values a term, in pure Python
(numpy would add half to a c1 process's peak RSS).  hp2_poly sums one m of
each orbit {m, sigma(m)}, weight 2 off the p - 2 fixed points of sigma, from
four Gamma_p values a term, into the p - 1 classes of m mod (p - 1) in one
numpy int64 kernel, exact for p <= HP2_MAX_P = 5791.  dwork_c1 and dwork_lpoly
share one row body: it takes Teich(z) once and evaluates hp_poly at k = 2
(c1, p > 64) or k = 4, and hp2_poly at k = 4 for c2, each by Horner, and lifts
c1 and 2p c2 to integers; the LPoly it returns checks the Weil windows.  Every
trace is a plain int mod p^k.

At p <= 13 the c2 window [-4p^3, 12p^3] would need p^5 or p^6, which the
series tables do not reach.  A row depends on z only through z mod p, so
those primes have 26 non-degenerate rows, and both Dwork entry points read
them from the literal SMALL_PRIME_ROWS.  The definition-based trace that
certifies these rows and checks both kernels lives in the tests, with the
product-table gamma backend it runs on.
"""

from __future__ import annotations

from fractions import Fraction

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
            col = [b % m, c]
            for x0 in range(1, p - 1):
                c = -(x0 * c + prev[x0]) % m
                col.append(c)
            return col

        C = [column(1, pk, [0] * p)]  # Gamma_p(x0) for x0 = 0..p-1
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
        self._C_np = None

    def gamma_array(self, x):
        """gamma_list over an int64 numpy array of residues mod p^k."""
        import numpy as np

        if self._C_np is None:
            self._C_np = tuple(np.array(c, dtype=np.int64) for c in self.C)
        C0, C1, C2, C3 = self._C_np
        x0 = x % self.p
        py = x - x0
        g = C3[x0]
        for c in (C2, C1, C0):
            g = (c[x0] + _mulmod(py, g, self.pk)) % self.pk
        return g

    def gamma_list(self, xs) -> list[int]:
        """Gamma_p(x) mod p^k for each residue x mod p^k in xs: the cubic of
        x0 = x mod p at py = x - x0."""
        p, pk = self.p, self.pk
        C0, C1, C2, C3 = self.C
        if self.k <= 2:  # C2 = C3 = 0
            return [(C0[x0] + (x - x0) * C1[x0]) % pk for x in xs for x0 in (x % p,)]
        return [(C0[x0] + py * (C1[x0] + py * (C2[x0] + py * C3[x0]))) % pk
                for x in xs for x0 in (x % p,) for py in (x - x0,)]


# ---------------------------------------------------------------------------
# the wrap count and the banded H_p kernel, at any precision


def _wraps(x, q: int):
    """W(x) = #{j in 1..4 : j(q - 1) < 5x}, 1 <= x <= q - 2: the wrapped alphas j/5 at x."""
    return (5 * x - 1) // (q - 1)


def hp_poly(p: int, tables: GammaTables) -> list[int]:
    """H_p(Dwork | z) mod p^k as a polynomial in Teich(z), k the precision of
    `tables`: its coefficients of degree 0 up to the k-th band cut, at most p - 1.

    The term at m >= 1 carries p^e, e = eta_m + 4 = W(m) (_wraps), so it
    vanishes mod p^k from the cut on.  With y = 5u, u = m/(1-p), b = m/(p-1) = -u
    and f = floor(5m/p), a term costs two Gamma_p values:

      coeff_m = (-1)^(e+m+1) p^e/(1-p) 5^(1+f) omega(5)^(-5m) Gamma_p(y) b Gamma_p(b)^5 prod_{j<=e} w_j

    * Gauss multiplication (Robert, A Course in p-adic Analysis, ch. VII):
      prod_{j<5} Gamma_p(u + j/5) = eps_5 5^(1-R) c^Q Gamma_p(y), y = R + pQ,
      1 <= R <= p, c = 5^-(p-1), and eps_5 = prod_j Gamma_p(j/5) cancels as the
      m = 0 alpha product.  R = 5m - fp, Q = f + y and c^-y = (5/omega(5))^(5m),
      omega the Teichmuller lift, so 5^(1-R) c^Q = 5^(1+f) omega(5)^(-5m).
    * Reflection, Gamma_p(x) Gamma_p(1-x) = (-1)^R(x), and Gamma_p(1+b) = -b Gamma_p(b):
      1/Gamma_p(u) = (-1)^(m+1) b Gamma_p(b); the betas give Gamma_p(b)^4.
    * A wrapped alpha adds w_j = -(u + j/5) = (5m - j(p-1))/D, or -1 in p Z_p.

    `tables` is any gamma backend (gamma_list, pk, k) at the wanted precision.
    """
    if p == 5 or p == 2:
        raise ValueError("p = 2, 5 are bad for the Dwork parameters")
    k, pk = tables.k, tables.pk
    d = 5 * (p - 1)
    invd, inv1mp = pow(d, -1, pk), pow(1 - p, -1, pk)
    cut = min(p - 1, (k * p + 5 - k) // 5)
    bs = [5 * m * invd % pk for m in range(cut)]  # b = m/(p-1)
    gys, gbs = tables.gamma_list([-5 * b % pk for b in bs]), tables.gamma_list(bs)
    r = -pow(teichmuller(5, p, k), -5, pk)  # r^m = (-1)^m omega(5)^(-5m)
    s = [[(-1) ** (e + 1) * p**e * pow(invd, e, pk) * 5 ** (f + 1) * inv1mp % pk
          for f in range(k + 1)] for e in range(k)]
    coeffs, rm = [inv1mp], 1
    for m in range(1, cut):
        # e is an integer: the n_j = (j(p-1) - 5m) mod D sum to sum_j j(p-1) - 20m + D W(m);
        # and e < k: W(m) < k iff 5m <= k(p-1) iff m < (kp + 5 - k)/5
        m5, e = 5 * m, _wraps(m, p)
        rm = rm * r % pk
        g = gbs[m]
        g2 = g * g % pk
        t = s[e][m5 // p] * rm % pk * gys[m] % pk * bs[m] % pk * g % pk * (g2 * g2) % pk
        for j in range(1, e + 1):  # D w_j = 5m - j(p-1) = 5m + j mod p, or -D in p Z_p
            t = t * (m5 - j * (p - 1) if (m5 + j) % p else -d) % pk
        coeffs.append(t)
    return coeffs


def _horner_eval(coeffs: list[int], t: int, mod: int) -> int:
    """The polynomial with the given coefficients (degree 0 first) at t, mod `mod`."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % mod
    return acc


# ---------------------------------------------------------------------------
# the H_{p^2} kernel, at any precision

HP2_MAX_P = 5791  # the largest prime with p^4 < 2^50, the range of _mulmod
# orbit representatives per block, in whole rows (one row if a row is longer):
# small enough for the temporaries to stay in cache; a block adds at most this
# many weighted terms (a row at most two), each below p^k < 2^50, to a
# coefficient below p^k, so it stays below 2^63
_HP2_BLOCK = 1 << 12


def _mulmod(a, b, m: int):
    """a * b mod m, exactly, for an int64 array a and an int64 array or int b
    with 0 <= a, b < 2^53, a * b < 2^50 m and m < 2^50: a, b < m, or the
    a < p^2 (m and sigma(m)) with b < m = p that hp2_poly passes at k = 1.

    The float64 quotient a * (b * (1/m)) of the exact floats a and b carries
    three roundings of relative size 2^-53 on a value below 2^50, so it is
    within 3/8 of a*b/m and its nearest integer within 7/8.  The remainder,
    formed with wrapping int64 products, therefore lies in (-m, m); one
    correction (adding m where the sign bit is set) lifts it to [0, m).
    """
    import numpy as np

    r = a * b - np.rint(a * (b * (1.0 / m))).astype(np.int64) * m
    r += (r >> 63) & m
    return r


def hp2_poly(p: int, tables: GammaTables) -> list[int]:
    """H_{p^2}(Dwork | z) mod p^k as a polynomial in Teich(z), k the precision
    of `tables`: its p - 1 coefficients, summed in numpy int64.

    Teich(z)^(p-1) = 1, so the term at m, 1 <= m <= q - 2 (q = p^2), adds to
    the coefficient of degree m mod (p - 1).  The Frobenius twist {p(j/5 + u)},
    u = m/(1-q), is the alpha (pj mod 5)/5 at the base-p digit swap
    sigma(m) = pm mod (q - 1), which sends m = m0 + p m1 to m1 + p m0, so with
    u_x = x/(1-q) = -b_x and e_m = W(m) + W(sigma(m)) the term at m is

      (-p)^e_m prod_{x = m, sigma(m)} Gamma_p(b_x)^4 prod_{j=1..4} Gamma_p({j/5 + u_x})

    * Gauss multiplication (as in hp_poly): the {j/5 + u}, j = 0..4, are the
      (V + i)/5, V = {5u} = 5u + W(x) + 1, so no wrapped alpha needs a
      correction: prod_{j>=1} = eps_5 5^(1-R) c^Q Gamma_p(V) / Gamma_p(1 - b),
      V = R + pQ.  As sum_x V_x = 5(m0 + m1)/(1 - p) + e_m + 2 and
      c^(1/(1-p)) = 5/omega(5), the pair's 5^(1-R) c^Q is omega(5)^(-5(m0+m1))
      times prod_x 5^(f - W(x)), f = floor((5 x0 + W(x))/p), x0 = x mod p.
    * Reflection: 1/Gamma_p(1 - b) = (-1)^R(b) Gamma_p(b), R(b) = -x0 mod p:
      the pair's sign is (-1)^(m0 + m1), and with omega(5)^(-5(m0+m1)) it is
      r^c, r = -omega(5)^(-5), taken once per class c = m mod (p - 1).

    A term thus takes Gamma_p at b_x and V_x and the entries (-p)^W 5^(f - W)
    of a table by (W(x), x0).  It and e_m are symmetric in m and sigma(m) = m
    mod (p - 1), so the walk takes the m <= sigma(m), i.e. m1 <= m0: rows
    m0 = p-1..1 of m1 = 0..m0, whole rows to a block of about _HP2_BLOCK,
    weight 2, or 1 at the p - 2 fixed points m0 = m1 (the multiples of p + 1
    in 0 < m < q - 1).  Only the terms with e_m < k get gamma work (m = q - 1,
    a row's last, has e_m = 8); each block's weighted terms are reduced mod
    p^k and added into the p - 1 classes.

    Exact for p <= HP2_MAX_P: p^k < 2^50 is the range of _mulmod, every
    other int64 intermediate is below 5p^k or q, and a class is below p^k
    plus at most _HP2_BLOCK of a block's terms (a row of m1 = 0..m0 puts at
    most two in a class), each below p^k, so below 2^63.  Larger p raise
    ValueError.
    """
    if p > HP2_MAX_P:
        raise ValueError(f"the int64 H_(p^2) kernel needs p^4 < 2^50, i.e. p <= {HP2_MAX_P}; "
                         f"got p={p}")
    import numpy as np

    # A block's temporaries (4 rows of up to 5791 int64, 185 KB) reach glibc's
    # initial 128 KB mmap threshold, so each would be a fresh mapping whose pages
    # fault in again.  Freeing one 1 MB buffer lifts glibc's dynamic threshold past
    # them: a serial B = 2^10 c2 stream takes 0.7k minor page faults with it, 320k
    # without.
    np.empty(1 << 17, dtype=np.int64)
    q = p * p
    k, pk = tables.k, tables.pk
    invq = pow(q - 1, -1, pk)
    # (-p)^W 5^(f - W) by wrap count W < k and digit x0, f = floor((5 x0 + W)/p) in 0..4
    ws = np.arange(k)[:, None]
    fac = np.array([[(-p) ** v * pow(5, f - v, pk) % pk for f in range(5)] for v in range(k)],
                   dtype=np.int64)[ws, (5 * np.arange(p) + ws) // p].ravel()
    coeffs = np.zeros(p - 1, dtype=np.int64)
    # the m = 0 term is 1: a term's alpha gammas are divided by their m = 0 product,
    # the eight Gamma_p({p^v j/5}), and ({p j/5}) permutes ({j/5}), so that is eps_5^2,
    # the two twists' Gauss constants (it is 1, too: Gamma_p(x) Gamma_p(1 - x) = +-1
    # pairs j/5 with (5 - j)/5)
    coeffs[0] = 1
    hi = p  # rows m0 = lo..hi-1, m1 = 0..m0, of about _HP2_BLOCK orbit representatives
    while hi > 1:
        lo = max(1, hi - max(1, _HP2_BLOCK // hi))
        lens = np.arange(lo + 1, hi + 1)
        x = np.stack([np.repeat(lens - 1, lens),
                      np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)])
        x = x + p * x[::-1]  # m = m0 + p m1 and sigma(m) = m1 + p m0
        hi = lo
        # e_m = 8 - sum(alpha floors) + 4 sum(beta floors), floors of (p^v N - 5 p^v m)/D at
        # twist v: -W(m) and -1 at v = 0; as pm = sigma(m) + (q - 1) m1, m1 = floor(m/p), at
        # v = 1 they are -W(sigma(m)) - 4 m1 and -1 - m1, so e_m = W(m) + W(sigma(m)) >= 0
        w = _wraps(x, q)
        keep = w.sum(axis=0) < k  # drops m = q - 1 too: e_m = 8
        x, w = x[:, keep], w[:, keep]
        b = _mulmod(x, invq, pk)
        g = tables.gamma_array(np.concatenate((b, (w + 1 - 5 * b) % pk)))  # at b and V
        gb = _mulmod(g[0], g[1], pk)
        gb2 = _mulmod(gb, gb, pk)
        f = fac[w * p + x % p]
        t = _mulmod(_mulmod(gb2, gb2, pk), _mulmod(gb, _mulmod(g[2], g[3], pk), pk), pk)
        t = _mulmod(t, _mulmod(f[0], f[1], pk), pk)
        t = t * (1 + (x[0] < x[1])) % pk  # weight 2 off the p - 2 fixed points m0 = m1
        np.add.at(coeffs, x[0] % (p - 1), t)
        coeffs %= pk
    r, scale = -pow(teichmuller(5, p, k), -5, pk), pow(1 - q, -1, pk)
    out = []
    for c in coeffs.tolist():  # r^c = (-1)^c omega(5)^(-5c) in class c
        out.append(c * scale % pk)
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
    checks.  O(p^2) work (the H_{p^2} sum); p <= 13 read SMALL_PRIME_ROWS."""
    return _dwork_row(z, p, True)
