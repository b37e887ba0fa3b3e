"""Shared number-theoretic primitives.

Prime sieving, degree-1 prime filters for the five base fields in play,
Gaussian/Eisenstein integer arithmetic with normalized prime splitting,
quartic/sextic power residue symbols, and Teichmuller lifts.

All functions are pure; nothing here mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


class NotSplitError(ValueError):
    pass


class NotPrimeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rational primes


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (simple odd sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for n in range(2, isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
    return [n for n in range(2, bound + 1) if sieve[n]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    r = isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A base field, identified by the congruence condition its degree-1
    primes satisfy.  `residues` are the allowed classes of p mod `modulus`;
    ramified primes are excluded outright."""

    name: str
    modulus: int
    residues: frozenset[int]
    ramified: frozenset[int]

    def is_degree_one(self, p: int) -> bool:
        if p in self.ramified:
            return False
        return self.modulus == 1 or p % self.modulus in self.residues


Q = FieldSpec("Q", 1, frozenset(), frozenset())
QI = FieldSpec("Q(i)", 4, frozenset({1}), frozenset({2}))
QW = FieldSpec("Q(w)", 3, frozenset({1}), frozenset({3}))
QIW = FieldSpec("Q(i,w)", 12, frozenset({1}), frozenset({2, 3}))
QSQRT3 = FieldSpec("Q(sqrt3)", 12, frozenset({1, 11}), frozenset({2, 3}))

FIELDS = {f.name: f for f in (Q, QI, QW, QIW, QSQRT3)}
# accepted spellings on the CLI / in specs
FIELD_ALIASES = {
    "Q": Q,
    "Q(i)": QI,
    "Q(w)": QW,
    "Q(omega)": QW,
    "Q(i,w)": QIW,
    "Q(i,omega)": QIW,
    "Q(sqrt3)": QSQRT3,
    "Q(sqrt(3))": QSQRT3,
}


def degree_one_primes(field: FieldSpec, bound: int) -> list[int]:
    """Rational primes p <= bound that lie under a degree-1 prime of the
    field.  Ramified primes are silently dropped; every split p is listed
    once (conjugate primes carry identical L-data for the motives here)."""
    return [p for p in primes_up_to(bound) if field.is_degree_one(p)]


# ---------------------------------------------------------------------------
# Z[i]


@dataclass(frozen=True)
class GaussInt:
    """Element re + im*i of Z[i]."""

    re: int
    im: int

    def __add__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def trace(self) -> int:
        return 2 * self.re

    def __pow__(self, k: int) -> "GaussInt":
        r = GaussInt(1, 0)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def divides(self, other: "GaussInt") -> bool:
        n = self.norm()
        q = other * self.conj()
        return q.re % n == 0 and q.im % n == 0


GAUSS_UNITS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))
# (1+i)^3 = -2+2i, the conductor of the Q(i) Hecke character in play
_ONE_PLUS_I_CUBED = GaussInt(-2, 2)


def _gauss_normalized(a: int, b: int) -> GaussInt:
    """The unit multiple of a+bi congruent to 1 mod (1+i)^3, or raise."""
    z = GaussInt(a, b)
    hits = [u * z for u in GAUSS_UNITS if _ONE_PLUS_I_CUBED.divides(u * z - GaussInt(1, 0))]
    if len(hits) != 1:
        raise NotSplitError(f"normalization mod (1+i)^3 not unique for {a}+{b}i")
    return hits[0]


def split_prime_qi(p: int) -> GaussInt:
    """Generator alpha of a prime over p in Z[i], normalized so that
    alpha = 1 mod (1+i)^3.  Requires p = 1 mod 4."""
    if p % 4 != 1:
        raise NotSplitError(f"{p} is not split in Q(i)")
    for a in range(1, isqrt(p) + 1):
        b2 = p - a * a
        b = isqrt(b2)
        if b * b == b2:
            return _gauss_normalized(a, b)
    raise NotSplitError(f"no representation {p} = a^2 + b^2")  # unreachable


# ---------------------------------------------------------------------------
# Z[w], w a primitive cube root of unity (upper half plane)


@dataclass(frozen=True)
class EisenInt:
    """Element a + b*w of Z[w], w^2 + w + 1 = 0."""

    a: int
    b: int

    def __add__(self, o: "EisenInt") -> "EisenInt":
        return EisenInt(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "EisenInt") -> "EisenInt":
        return EisenInt(self.a - o.a, self.b - o.b)

    def __mul__(self, o: "EisenInt") -> "EisenInt":
        # (a+bw)(c+dw) = ac + (ad+bc)w + bd w^2,  w^2 = -1-w
        ac = self.a * o.a
        bd = self.b * o.b
        return EisenInt(ac - bd, self.a * o.b + self.b * o.a - bd)

    def __neg__(self) -> "EisenInt":
        return EisenInt(-self.a, -self.b)

    def conj(self) -> "EisenInt":
        # conj(w) = w^2 = -1-w
        return EisenInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def trace(self) -> int:
        return 2 * self.a - self.b

    def __pow__(self, k: int) -> "EisenInt":
        r = EisenInt(1, 0)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def divides(self, other: "EisenInt") -> bool:
        n = self.norm()
        q = other * self.conj()
        return q.a % n == 0 and q.b % n == 0


_W = EisenInt(0, 1)
EISEN_UNITS = (
    EisenInt(1, 0),
    _W,
    _W * _W,
    EisenInt(-1, 0),
    -_W,
    -(_W * _W),
)


def _eisen_normalized(a: int, b: int) -> EisenInt:
    """The unit multiple of a+bw congruent to 1 mod 3, or raise."""
    z = EisenInt(a, b)
    hits = [
        u * z for u in EISEN_UNITS if ((u * z).a - 1) % 3 == 0 and (u * z).b % 3 == 0
    ]
    if len(hits) != 1:
        raise NotSplitError(f"normalization mod 3 not unique for {a}+{b}w")
    return hits[0]


def split_prime_qomega(p: int) -> EisenInt:
    """Generator alpha of a prime over p in Z[w], normalized so that
    alpha = 1 mod 3.  Requires p = 1 mod 3."""
    if p % 3 != 1:
        raise NotSplitError(f"{p} is not split in Q(w)")
    # a^2 - ab + b^2 = p; solve for b given a via the quadratic formula
    for a in range(1, isqrt(4 * p // 3) + 1):
        d = 4 * p - 3 * a * a
        if d < 0:
            break
        r = isqrt(d)
        if r * r != d:
            continue
        for b2 in ((a + r), (a - r)):
            if b2 % 2 == 0:
                return _eisen_normalized(a, b2 // 2)
    raise NotSplitError(f"no representation {p} = a^2 - ab + b^2")  # unreachable


# ---------------------------------------------------------------------------
# Power residue symbols
#
# Both symbols are computed through the residue field at a degree-1 prime:
# Z[i]/(a+bi) = F_p via i -> -a/b, and Z[w]/(a+bw) = F_p via w -> -a/b.


def _root_of_pi_qi(pi: GaussInt, p: int) -> int:
    if pi.im % p == 0:
        raise NotPrimeError(f"{pi} is not a degree-1 prime over {p}")
    return (-pi.re * pow(pi.im, -1, p)) % p


def residue_symbol_quartic(alpha: GaussInt, pi: GaussInt) -> GaussInt:
    """Biquadratic residue symbol (alpha/pi)_4 in {1, i, -1, -i}, or 0
    (as GaussInt) when alpha is not coprime to pi.

    pi must be a degree-1 Gaussian prime; the symbol is the unique power
    of i congruent to alpha^((N(pi)-1)/4) mod pi.
    """
    p = pi.norm()
    if not is_prime(p) or p % 4 != 1:
        raise NotPrimeError(f"{pi} is not a degree-1 prime of Z[i] over p=1 mod 4")
    r = _root_of_pi_qi(pi, p)
    a = (alpha.re + alpha.im * r) % p
    if a == 0:
        return GaussInt(0, 0)
    t = pow(a, (p - 1) // 4, p)
    for k, unit in enumerate(GAUSS_UNITS):
        if t == pow(r, k, p):
            return unit
    raise ArithmeticError(f"{t} is not a 4th root of unity mod {p}")  # unreachable


def _root_of_pi_qomega(pi: EisenInt, p: int) -> int:
    if pi.b % p == 0:
        raise NotPrimeError(f"{pi} is not a degree-1 prime over {p}")
    return (-pi.a * pow(pi.b, -1, p)) % p


def residue_symbol_sextic(alpha: EisenInt, pi: EisenInt) -> EisenInt:
    """Sextic residue symbol (alpha/pi)_6 in {+-1, +-w, +-w^2}, or 0 when
    alpha is not coprime to pi.

    pi must be a degree-1 Eisenstein prime; the symbol is the unique unit
    congruent to alpha^((N(pi)-1)/6) mod pi.
    """
    p = pi.norm()
    if not is_prime(p) or p % 3 != 1:
        raise NotPrimeError(f"{pi} is not a degree-1 prime of Z[w] over p=1 mod 3")
    r = _root_of_pi_qomega(pi, p)
    a = (alpha.a + alpha.b * r) % p
    if a == 0:
        return EisenInt(0, 0)
    t = pow(a, (p - 1) // 6, p)
    for s in (1, p - 1):
        for k in range(3):
            if t == s * pow(r, k, p) % p:
                u = EISEN_UNITS[k] if s == 1 else EISEN_UNITS[k + 3]
                return u
    raise ArithmeticError(f"{t} is not a 6th root of unity mod {p}")  # unreachable


def residue_symbol_cubic(alpha: EisenInt, pi: EisenInt) -> EisenInt:
    """Cubic residue symbol = square of the sextic one."""
    s = residue_symbol_sextic(alpha, pi)
    return s * s


# ---------------------------------------------------------------------------
# Teichmuller lifts / fixed-precision p-adic residues


@dataclass(frozen=True)
class PadicInt:
    """A residue 0 <= value < p^k standing in for a p-adic integer known
    to precision k."""

    value: int
    p: int
    k: int

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def balanced(self) -> int:
        """Lift to the representative in (-p^k/2, p^k/2]."""
        m = self.modulus
        v = self.value % m
        return v - m if v > m // 2 else v


def teichmuller(z: int, p: int, k: int) -> int:
    """Teichmuller lift of z mod p^k: the (p-1)st root of unity congruent
    to z mod p, computed as z^(p^(k-1)) mod p^k.  z must be a unit."""
    if z % p == 0:
        raise ValueError(f"{z} is divisible by {p}")
    return pow(z, p ** (k - 1), p**k)


def rational_mod(num: int, den: int, modulus: int) -> int:
    """num/den reduced mod modulus (den must be a unit)."""
    return num * pow(den, -1, modulus) % modulus
