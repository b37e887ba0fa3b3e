"""Fourier coefficients of the newforms used by the motive constructions.

CM forms come from Hecke characters of Q(i) or Q(w): the coefficient at a
split prime p is the trace of psi(P)^l times an optional quartic/sextic
residue-symbol twist, possibly flipped by a quadratic Dirichlet character;
inert primes give 0.  A curve with j = 0 or 1728, in any model, has the
coefficient of its conjugate-twisted character (CurveSpec.cm_family) as trace;
past p = 3 other curves' traces come from Shanks-Mestre baby-step giant-step on
points of the curve and its quadratic twist.  The O(p) point count
ec_trace_naive answers at p <= 3 and is the oracle of both fast paths and the
fallback of the second.  Non-CM weight-4 forms come from coefficient files.

Conventions are pinned empirically by the printed coefficient tables the
test suite asserts: psi(P) is the generator normalized to 1 mod (1+i)^3
(resp. mod 3), and symbols are evaluated at that generator.  The level-576
weight-3 quartic twist carries a built-in Kronecker-6 flip; see the module
tests for the table it reproduces.
"""

from __future__ import annotations

import hashlib
import io
import operator
import os
from dataclasses import dataclass
from math import gcd, isqrt

from .ntkernel import (
    EisenInt,
    GaussInt,
    residue_symbol_quartic,
    residue_symbol_sextic,
    split_prime_qi,
    split_prime_qomega,
)
from .records import ConsistencyError, SkippedPrime


class BadPrimeError(SkippedPrime, ValueError):
    """No good coefficient or trace at this prime; a stream skips it."""


class CoeffFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quadratic Dirichlet characters


@dataclass(frozen=True)
class QuadraticCharacter:
    modulus: int
    plus: frozenset[int]

    def __call__(self, n: int) -> int:
        r = n % self.modulus
        if gcd(r, self.modulus) != 1:
            return 0
        return 1 if r in self.plus else -1


CHI4 = QuadraticCharacter(4, frozenset({1}))
# the two mod-24 characters used for the twisted-form identities
CHI24_A = QuadraticCharacter(24, frozenset({1, 7, 17, 23}))
CHI24_B = QuadraticCharacter(24, frozenset({1, 5, 7, 11}))
# Kronecker symbols (6/.), (-3/.); (-4/.) is CHI4
CHI6 = QuadraticCharacter(24, frozenset({1, 5, 19, 23}))
KRONECKER_M3 = QuadraticCharacter(3, frozenset({1}))


# ---------------------------------------------------------------------------
# Hecke character values and coefficients


def _hecke_coeff(hecke: tuple, p: int) -> int:
    """Trace of psi(P)^power * (twist/P), times dirichlet(p), for hecke =
    (field, power, twist, dirichlet); 0 at an inert p.  P = (alpha) lies over
    p in Q(i) or Q(w), alpha normalized to 1 mod (1+i)^3 resp. 3, and the
    twist is the quartic resp. sextic residue symbol at alpha (1 if twist is None)."""
    field, power, twist, dirichlet = hecke
    if field == "Q(i)":
        ring, split, symbol = GaussInt, split_prime_qi, residue_symbol_quartic
    else:  # "Q(w)": NewformHandle and CurveSpec.cm_family admit no other field
        ring, split, symbol = EisenInt, split_prime_qomega, residue_symbol_sextic
    d = 4 - ring.T * ring.T  # |discriminant|: p is inert iff p = -1 mod d
    if p % d == d - 1:
        return 0
    alpha = split(p)
    val = alpha**power
    if twist is not None:
        sym = symbol(ring(twist, 0), alpha)
        if sym.norm() == 0:
            raise BadPrimeError(f"twist {twist} not coprime to {p}")
        val = val * sym
    b = val.trace()
    if dirichlet is not None:
        b *= dirichlet(p)
    return b


# ---------------------------------------------------------------------------
# elliptic curves


@dataclass(frozen=True)
class CurveSpec:
    """Long Weierstrass model [a1, a2, a3, a4, a6] over Q.  Each coefficient is
    stored as a plain int (operator.index, so True is 1); anything else, and a
    singular model (discriminant 0), which has no good prime, is a ValueError
    naming the model.  The discriminant, the CM family and the short model are
    computed once, when the curve is built, since each stream row asks for them."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{self} has a non-integer coefficient {name} = {value!r}") from None
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2, b4, b6 = a1**2 + 4 * a2, 2 * a4 + a1 * a3, a3**2 + 4 * a6
        c4, c6 = b2**2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
        disc = (c4**3 - c6**2) // 1728
        if disc == 0:
            raise ValueError(f"{self} is a singular curve (discriminant 0)")
        # Y^2 = X^3 + AX + B, scaled by 6 from a long model, is E over F_p at good p > 3
        A, B = (a4, a6) if (a1, a2, a3) == (0, 0, 0) else (-27 * c4, -54 * c6)
        family = None  # A = B = 0 is singular
        if A == 0:
            family = ("Q(w)", 1, (4 * B) ** 5, None)
        elif B == 0:
            family = ("Q(i)", 1, (-A) ** 3, None)
        object.__setattr__(self, "_discriminant", disc)
        object.__setattr__(self, "_cm_family", family)
        object.__setattr__(self, "_short", (A, B))

    def __str__(self) -> str:
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"

    @staticmethod
    def short(A: int, B: int) -> "CurveSpec":
        return CurveSpec(0, 0, 0, A, B)

    def discriminant(self) -> int:
        return self._discriminant

    def cm_family(self):
        """The Hecke data (field, 1, t^(n-1), None) of _hecke_coeff when the short
        model of any given model is Y^2 = X^3 + B (j = 0: Q(w), t = 4B, n = 6) or
        Y^2 = X^3 + AX (j = 1728: Q(i), t = -A, n = 4), else None.  At a good
        p > 3 a_p is the trace of conj((t/P)) alpha, and (t^(n-1)/P) = conj((t/P))."""
        return self._cm_family


def ec_trace_naive(curve: CurveSpec, p: int) -> int:
    """a_p by an O(p) point count: ec_trace at p <= 3, the oracle of its two fast
    paths (Hecke coefficient, baby-step giant-step) and the fallback of the second."""
    if curve.discriminant() % p == 0:
        raise BadPrimeError(f"bad reduction at {p}")
    if p == 2:
        count = 1
        for x in range(2):
            for y in range(2):
                lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % 2
                rhs = (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % 2
                if lhs == rhs:
                    count += 1
        return p + 1 - count
    sq = bytearray(p)
    for t in range(p):
        sq[t * t % p] = 1
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    # complete the square: (2y + a1 x + a3)^2 = 4 f(x) + (a1 x + a3)^2
    count = 1
    for x in range(p):
        f = ((x + a2) * x + a4) * x + a6
        g = (4 * f + (a1 * x + a3) ** 2) % p
        if g == 0:
            count += 1
        elif sq[g]:
            count += 2
    return p + 1 - count


_BSGS_POINTS = 8  # points tried before the point count takes over


def _ec_add(P, Q, A: int, p: int):
    """P + Q on Y^2 = X^3 + AX + B over F_p, affine; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, A: int, p: int):
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, A, p)
        P = _ec_add(P, P, A, p)
        n >>= 1
    return R


def _hasse_orders(P, A: int, p: int) -> list[int] | None:
    """Every N with (p + 1 - N)^2 <= 4p and NP = O: baby steps jP, 1 <= j <= m,
    keyed by x, and giant steps cP, c = p + 1 - T + m + i(2m + 1), each of which
    meets at most one of +-jP, so that (c -+ j)P = O.  None when the order of P is
    at most 2m, the case in which the baby steps' x-coordinates are not distinct."""
    T = isqrt(4 * p)
    m = isqrt(T) + 1
    baby = {}
    Q = P
    for j in range(1, m + 1):
        if Q is None or Q[1] == 0 or Q[0] in baby:
            return None
        baby[Q[0]] = (j, Q[1])
        Q = _ec_add(Q, P, A, p)
    orders = []
    c = p + 1 - T + m
    R, G = _ec_mul(c, P, A, p), _ec_mul(2 * m + 1, P, A, p)
    while c - m <= p + 1 + T:
        if R is None:
            orders.append(c)
        elif R[0] in baby:
            j, y = baby[R[0]]
            orders.append(c - j if R[1] == y else c + j)
        R = _ec_add(R, G, A, p)
        c += 2 * m + 1
    return [N for N in orders if (p + 1 - N) ** 2 <= 4 * p]


def _bsgs_trace(curve: CurveSpec, p: int) -> int:
    """a_p (p > 3, good) as the one trace that fits the orders of the points
    (x d, d^2), x = 0, 1, 2, ..., where d = f(x) != 0 on the short model
    Y^2 = f(X).  Such a point lies on Y^2 = X^3 + A d^2 X + B d^3, which is E when
    d is a square mod p and its quadratic twist (p + 1 + a_p points) when not.
    The answer is exact; past p = 229 E or its twist has a point that leaves one
    trace (Mestre; Cohen, "A Course in Computational Algebraic Number Theory",
    7.4.3), and after _BSGS_POINTS points with more left it is ec_trace_naive's."""
    A, B = curve._short
    traces, points = None, 0
    for x in range(p):
        d = ((x * x + A) * x + B) % p
        if d == 0:
            continue
        orders = _hasse_orders((x * d % p, d * d % p), A * d * d % p, p)
        if orders is not None:
            sign = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            fits = {sign * (p + 1 - N) for N in orders}
            traces = fits if traces is None else traces & fits
            if len(traces) == 1:
                return traces.pop()
        points += 1
        if points == _BSGS_POINTS:
            break
    return ec_trace_naive(curve, p)


def ec_trace(curve: CurveSpec, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime p of good reduction: the point count
    ec_trace_naive at p <= 3, where the short model may be singular; past 3 the
    Hecke coefficient of cm_family() (0 at inert primes) for j = 0 and 1728,
    and _bsgs_trace for every other curve."""
    if curve.discriminant() % p == 0:
        raise BadPrimeError(f"bad reduction at {p}")
    if p <= 3:
        return ec_trace_naive(curve, p)
    hecke = curve.cm_family()
    if hecke is not None:
        return _hecke_coeff(hecke, p)
    return _bsgs_trace(curve, p)


# ---------------------------------------------------------------------------
# newform handles


@dataclass(frozen=True)
class NewformHandle:
    """A source of rational Fourier coefficients b_p.

    kind 'hecke' with hecke = (field, power, twist, dirichlet), field "Q(i)"
    or "Q(w)", 'curve' with a CurveSpec, or 'file' with the path to a
    coefficient table; another kind or CM field, or a kind without its field,
    is a ValueError naming the label.  weight drives the Weil bound;
    nebentypus is the quadratic character chi with b_p = chi(p) b_p (trivial
    for even weight)."""

    label: str
    weight: int
    level: int
    kind: str
    hecke: tuple | None = None
    curve: CurveSpec | None = None
    path: str | None = None
    nebentypus: QuadraticCharacter | None = None

    def __post_init__(self):
        field = {"hecke": "hecke", "curve": "curve", "file": "path"}.get(self.kind)
        if field is None:
            raise ValueError(f"{self.label}: unknown kind {self.kind!r}, not hecke, curve or file")
        if getattr(self, field) is None:
            raise ValueError(f"{self.label}: kind {self.kind!r} needs its {field} field")
        if self.kind == "hecke" and self.hecke[0] not in ("Q(i)", "Q(w)"):
            raise ValueError(f"{self.label}: unknown CM field {self.hecke[0]!r}, not Q(i) or Q(w)")
        if self.weight % 2 == 0 and self.nebentypus is not None:
            raise ValueError(f"{self.label}: even weight forces trivial nebentypus")
        if self.weight % 2 == 1 and self.nebentypus is None:
            raise ValueError(f"{self.label}: odd weight needs a quadratic nebentypus")

    def is_good(self, p: int) -> bool:
        return self.level % p != 0


_FILE_TABLES: dict[str, tuple[bytes, dict[int, int]]] = {}  # path: (SHA-256, table)


def file_digest(path: str) -> bytes:
    """The SHA-256 of a coefficient file's bytes; re-parses the file's
    memoized table from them when they changed.  Streams call it once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CoeffFileError(f"{path}: cannot read coefficient file ({exc.strerror})") from exc
    digest = hashlib.sha256(data).digest()
    if _FILE_TABLES.get(path, (None,))[0] != digest:
        _FILE_TABLES[path] = (digest, _parse_coeffs(path, data))
    return digest


def _parse_coeffs(path: str, data: bytes) -> dict[int, int]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CoeffFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    table: dict[int, int] = {}
    last = 0
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CoeffFileError(f"{path}:{lineno}: expected 'p a_p', got {raw!r}")
        try:
            p, ap = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise CoeffFileError(f"{path}:{lineno}: non-integer field") from exc
        if p <= last:
            raise CoeffFileError(f"{path}:{lineno}: primes not ascending")
        last = p
        table[p] = ap
    if not table:
        raise CoeffFileError(f"{path}: empty coefficient table")
    return table


def coeff(form: NewformHandle, p: int) -> int:
    """The coefficient b_p; raises BadPrimeError at primes dividing the
    level (or missing from a file table).  A b_p past the Weil bound is a
    data error (CoeffFileError) for a file form and an internal
    consistency failure (ConsistencyError) for a computed one."""
    if not form.is_good(p):
        raise BadPrimeError(f"{form.label}: {p} divides the level")
    if form.kind == "hecke":
        b = _hecke_coeff(form.hecke, p)
    elif form.kind == "curve":
        b = ec_trace(form.curve, p)
    else:  # "file": NewformHandle admits no other kind
        if form.path not in _FILE_TABLES:
            file_digest(form.path)
        try:
            b = _FILE_TABLES[form.path][1][p]
        except KeyError:
            raise BadPrimeError(f"{form.label}: no coefficient for p={p} in file")
    if 4 * p ** (form.weight - 1) < b * b:
        msg = f"{form.label}: b_{p}={b} breaks the Weil bound"
        if form.kind == "file":
            raise CoeffFileError(f"{form.path}: {msg}")
        raise ConsistencyError(msg)
    return b


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FORMS: dict[str, NewformHandle] = {form.label: form for form in (
    # weight-2 CM forms (elliptic curves with CM)
    NewformHandle("27.2a", 2, 27, "hecke", hecke=("Q(w)", 1, None, None)),
    NewformHandle("32.2a", 2, 32, "hecke", hecke=("Q(i)", 1, None, None)),
    # weight-4 powers and their twists
    NewformHandle("9.4a", 4, 9, "hecke", hecke=("Q(w)", 3, None, None)),
    NewformHandle("32.4b", 4, 32, "hecke", hecke=("Q(i)", 3, None, None)),
    NewformHandle("144.4d", 4, 144, "hecke", hecke=("Q(w)", 3, None, CHI4)),
    NewformHandle("576.4.sextic", 4, 576, "hecke", hecke=("Q(w)", 3, 2, None)),
    NewformHandle("108.4c", 4, 108, "hecke", hecke=("Q(w)", 3, 2, CHI24_B)),
    NewformHandle("576.4.quartic", 4, 576, "hecke", hecke=("Q(i)", 3, 3, None)),
    NewformHandle("288.4d", 4, 288, "hecke", hecke=("Q(i)", 3, -3, None)),
    # weight-3 forms (quadratic nebentypus = the CM field's Kronecker symbol)
    NewformHandle("16.3.3a", 3, 16, "hecke", hecke=("Q(i)", 2, None, None), nebentypus=CHI4),
    NewformHandle("27.3.5a", 3, 27, "hecke", hecke=("Q(w)", 2, None, None), nebentypus=KRONECKER_M3),
    # the level-576 weight-3 quartic twist: the printed coefficient table pins
    # an extra Kronecker-6 flip on top of the residue-symbol twist
    NewformHandle("576.3.quartic", 3, 576, "hecke", hecke=("Q(i)", 2, 27, CHI6), nebentypus=CHI4),
    # non-CM weight 2 and the quartic-twist curve
    NewformHandle("11.2a", 2, 11, "curve", curve=CurveSpec(0, -1, 1, -10, -20)),
    NewformHandle("256.2b", 2, 256, "curve", curve=CurveSpec.short(-2, 0)),
    NewformHandle("36.2a", 2, 36, "curve", curve=CurveSpec.short(0, 1)),
    # non-CM weight 4, ingested from a shipped coefficient table
    NewformHandle("5.4a", 4, 5, "file", path=os.path.join(_DATA_DIR, "5.4a.txt")),
)}
