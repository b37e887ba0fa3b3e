"""Shared number-theoretic primitives.

Prime sieving, degree-1 prime filters for the five base fields in play,
Teichmuller lifts, and one ring type for the two CM fields: Z[i] and Z[w]
are Z[t] with t^2 + T t + 1 = 0 (T = 0 and T = 1).  GaussInt and EisenInt
set only the constants T, the unit generator (i, resp. 1 + w) and the
normalizing modulus M ((1+i)^3, resp. 3); one splitter gives, in O(log p),
the generator normalized to 1 mod M of the prime over p that a scan over its
first coordinate finds first (the coefficient tables, traces with rational
twists, cannot tell it from its conjugate; the scan's choice keeps generators
and symbols), and one residue-symbol body gives the quartic resp. sextic
symbol.  Shared state: the normalization tables, and each ring's uncapped memo
p -> generator, which only the splitter reads and fills, after an exact
is_prime(p); the residue symbol certifies its norm through the splitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt


class NotSplitError(ValueError):
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


# (bound, bases): the first k prime bases make Miller-Rabin exact below the least
# strong pseudoprime to all of them (Pomerance-Selfridge-Wagstaff 1980, Jaeschke
# 1993; Sorenson-Webster 2017 for the 13 bases)
_MR_BASES = ((2047, (2,)), (1373653, (2, 3)), (25326001, (2, 3, 5)),
             (3215031751, (2, 3, 5, 7)),
             (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the smallest base set of _MR_BASES
    that is exact at n; ValueError past the last bound."""
    if n < 8:
        return n in (2, 3, 5, 7)
    if n >= _MR_BASES[-1][0]:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin range")
    m = n - 1
    s = (m & -m).bit_length() - 1  # n - 1 = 2^s d, d odd
    for a in next(bases for bound, bases in _MR_BASES if n < bound):
        x = pow(a, m >> s, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A base field, identified by the congruence condition its degree-1
    primes satisfy: p mod `modulus` lies in `residues`.  Every ramified
    prime fails that test."""

    name: str
    modulus: int
    residues: frozenset[int]

    def is_degree_one(self, p: int) -> bool:
        return p % self.modulus in self.residues


Q = FieldSpec("Q", 1, frozenset({0}))
QI = FieldSpec("Q(i)", 4, frozenset({1}))
QW = FieldSpec("Q(w)", 3, frozenset({1}))
QIW = FieldSpec("Q(i,w)", 12, frozenset({1}))
QSQRT3 = FieldSpec("Q(sqrt3)", 12, frozenset({1, 11}))

FIELDS = {f.name: f for f in (Q, QI, QW, QIW, QSQRT3)}
# accepted spellings on the CLI / in specs
FIELD_ALIASES = {**FIELDS, "Q(omega)": QW, "Q(i,omega)": QIW, "Q(sqrt(3))": QSQRT3}


def degree_one_primes(field: FieldSpec, bound: int) -> list[int]:
    """Rational primes p <= bound that lie under a degree-1 prime of the
    field.  Ramified primes are silently dropped; every split p is listed
    once (conjugate primes carry identical L-data for the motives here)."""
    return [p for p in primes_up_to(bound) if field.is_degree_one(p)]


# ---------------------------------------------------------------------------
# Z[t], t^2 + T t + 1 = 0: Z[i] (T = 0) and Z[w] (T = 1)


@dataclass(frozen=True, slots=True)
class _QuadInt:
    """Element a + b*t of Z[t], t^2 + T t + 1 = 0, immutable and slotted: the
    split memo holds these objects themselves.

    A subclass sets only constants: T, the unit generator UNIT and the
    normalizing modulus M, both as (a, b), and __slots__ = ().  Each subclass
    derives its unit group UNITS, the powers of UNIT, when it is defined, and
    gets its own empty split memo, which only _split_prime reads and fills."""

    a: int
    b: int

    def __init_subclass__(cls):
        one, gen = cls(1, 0), cls(*cls.UNIT)
        units = [one]
        while units[-1] * gen != one:
            units.append(units[-1] * gen)
        cls.UNITS = tuple(units)
        cls._SPLITS = {}

    @classmethod
    @cache
    def _normalizers(cls) -> tuple[int, dict]:
        """(n, table): n = N(M), and the table maps z mod n, coordinatewise, to
        the unique unit u with u z = 1 mod M.  n = M conj(M) is a multiple of
        M, so z mod n fixes z mod M.  Built on first use, once per class."""
        one, m = cls(1, 0), cls(*cls.M)
        n, table = m.norm(), {}
        for a in range(n):
            for b in range(n):
                hits = [u for u in cls.UNITS if m.divides(u * cls(a, b) - one)]
                if len(hits) == 1:
                    table[a, b] = hits[0]
        return n, table

    def __sub__(self, o):
        return type(self)(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        # (a + bt)(c + dt) = ac + (ad + bc) t + bd t^2,  t^2 = -T t - 1
        bd = self.b * o.b
        return type(self)(self.a * o.a - bd, self.a * o.b + self.b * o.a - self.T * bd)

    def conj(self):
        # conj(t) = -T - t
        return type(self)(self.a - self.T * self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.T * self.a * self.b + self.b * self.b

    def trace(self) -> int:
        return 2 * self.a - self.T * self.b

    def __pow__(self, k: int):
        # by halving, with no product past the last one needed: self^1 takes
        # none, self^3 two
        if k < 2:
            if k < 0:
                raise ValueError(f"negative power {k}")
            return self if k else type(self)(1, 0)
        h = self ** (k >> 1)
        return h * h * self if k & 1 else h * h

    def divides(self, other) -> bool:
        n = self.norm()
        q = other * self.conj()
        return q.a % n == 0 and q.b % n == 0

    def normalized(self):
        """The unit multiple of self that is 1 mod M (NotSplitError if none is unique)."""
        n, table = self._normalizers()
        u = table.get((self.a % n, self.b % n))
        if u is None:
            raise NotSplitError(f"normalization mod {self.M} not unique for {self}")
        return u * self

    @classmethod
    def _split_prime(cls, p: int):
        """Generator x + y t, normalized to 1 mod M, of a prime over the prime
        p = 1 mod |UNITS|, in O(log p): t has order k = 4 - T, so its image mod
        p is s = c^((p-1)/k) for the first c >= 2 with s^2 + T s + 1 = 0, and
        Cornacchia's descent from the root s of -1 resp. 2s + 1 of -3 gives
        p = u^2 + D v^2, D = 1 resp. 3.  The conjugate returned is the scan's
        (module doc): least x > 0 with 4p - (4 - T^2) x^2 = r^2 (x in u, v resp.
        2v, |u - v|, u + v), y = (Tx + r)/2.  The first call at p checks p with
        is_prime (NotSplitError for a composite, ValueError past its range) and
        stores the generator in the ring's memo; every call returns that object."""
        g = cls._SPLITS.get(p)
        if g is None:
            if (p - 1) % len(cls.UNITS) or not is_prime(p):
                raise NotSplitError(f"{p} is not a prime 1 mod {len(cls.UNITS)} ({cls.__name__})")
            T, k, D = cls.T, 4 - cls.T, 1 + 2 * cls.T
            for c in range(2, p):
                s = pow(c, (p - 1) // k, p)
                if (s * s + T * s + 1) % p == 0:
                    break
            a, b, bound = p, (2 * s + 1) % p if T else s, isqrt(p)
            while b > bound:
                a, b = b, a % b
            u, v = b, isqrt((p - b * b) // D)
            x = min(2 * v, abs(u - v)) if T else min(u, v)
            r = isqrt(4 * p - (4 - T * T) * x * x)
            g = cls._SPLITS[p] = cls(x, (T * x + r) // 2).normalized()
        return g

    def residue_symbol(self, alpha):
        """(alpha/self)_n with n = |UNITS|: the unit congruent to
        alpha^((p-1)/n) mod self, or 0 when self | alpha.  self must be a
        degree-1 prime: the splitter certifies that p = N(self) is a prime 1 mod n
        (else NotSplitError), and then p does not divide b.  It is computed in
        the residue field Z[t]/(self) = F_p, where t maps to r = -a/b."""
        p, n = self.norm(), len(self.UNITS)
        self._split_prime(p)
        r = -self.a * pow(self.b, -1, p) % p
        t = (alpha.a + alpha.b * r) % p
        if t == 0:
            return type(self)(0, 0)
        t = pow(t, (p - 1) // n, p)
        for u in self.UNITS:
            if (u.a + u.b * r) % p == t:
                return u
        raise ArithmeticError(f"{t} is not a {n}th root of unity mod {p}")  # unreachable


class GaussInt(_QuadInt):
    """Element a + b*i of Z[i]: units i^k; M = (1+i)^3 = -2+2i, the conductor
    of the Q(i) Hecke characters in play."""

    __slots__ = ()
    T, UNIT, M = 0, (0, 1), (-2, 2)


class EisenInt(_QuadInt):
    """Element a + b*w of Z[w], w^2 + w + 1 = 0 (w in the upper half plane):
    units (1+w)^k; M = 3."""

    __slots__ = ()
    T, UNIT, M = 1, (1, 1), (3, 0)


def split_prime_qi(p: int) -> GaussInt:
    """Generator alpha of a prime over p in Z[i], normalized so that
    alpha = 1 mod (1+i)^3.  Requires p = 1 mod 4."""
    return GaussInt._split_prime(p)


def split_prime_qomega(p: int) -> EisenInt:
    """Generator alpha of a prime over p in Z[w], normalized so that
    alpha = 1 mod 3.  Requires p = 1 mod 3."""
    return EisenInt._split_prime(p)


def residue_symbol_quartic(alpha: GaussInt, pi: GaussInt) -> GaussInt:
    """Biquadratic residue symbol (alpha/pi)_4 in {1, i, -1, -i}, or 0 when
    alpha is not coprime to the degree-1 Gaussian prime pi."""
    return pi.residue_symbol(alpha)


def residue_symbol_sextic(alpha: EisenInt, pi: EisenInt) -> EisenInt:
    """Sextic residue symbol (alpha/pi)_6 in {+-1, +-w, +-w^2}, or 0 when
    alpha is not coprime to the degree-1 Eisenstein prime pi."""
    return pi.residue_symbol(alpha)


# ---------------------------------------------------------------------------
# Teichmuller lifts and rational residues


def teichmuller(z: int, p: int, k: int) -> int:
    """Teichmuller lift of z mod p^k: the (p-1)st root of unity congruent
    to z mod p, computed as z^(p^(k-1)) mod p^k.  z must be a unit."""
    if z % p == 0:
        raise ValueError(f"{z} is divisible by {p}")
    return pow(z, p ** (k - 1), p**k)


def rational_mod(num: int, den: int, modulus: int) -> int:
    """num/den reduced mod modulus (den must be a unit)."""
    return num * pow(den, -1, modulus) % modulus
