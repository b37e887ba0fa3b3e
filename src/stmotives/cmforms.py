"""Fourier coefficients of the newforms used by the motive constructions.

CM forms come from Hecke characters of Q(i) or Q(w): the coefficient at a
split prime p is the trace of psi(P)^l times an optional quartic/sextic
residue-symbol twist, possibly flipped by a quadratic Dirichlet character;
inert primes give 0.  Non-CM forms come from elliptic-curve point counts
or from coefficient files.

Conventions are pinned empirically by the printed coefficient tables the
test suite asserts: psi(P) is the generator normalized to 1 mod (1+i)^3
(resp. mod 3), and symbols are evaluated at that generator.  The level-576
weight-3 quartic twist carries a built-in Kronecker-6 flip; see the module
tests for the table it reproduces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

from .ntkernel import (
    EisenInt,
    GaussInt,
    residue_symbol_quartic,
    residue_symbol_sextic,
    split_prime_qi,
    split_prime_qomega,
)


class BadPrimeError(ValueError):
    pass


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


def psi_value(field: str, p: int):
    """psi(P) for the canonical weight-2 Hecke character of Q(i) or Q(w):
    the normalized generator of a prime above p."""
    if field == "Q(i)":
        return split_prime_qi(p)
    if field == "Q(w)":
        return split_prime_qomega(p)
    raise ValueError(f"no Hecke character field {field}")


def _hecke_coeff(field: str, power: int, p: int, twist=None, dirichlet=None) -> int:
    """Trace of psi(P)^power * twist(P), times dirichlet(p); 0 at inert p."""
    if field == "Q(i)":
        if p % 4 == 3:
            return 0
        alpha = split_prime_qi(p)
        val = alpha**power
        if twist is not None:
            sym = residue_symbol_quartic(GaussInt(twist, 0), alpha)
            if sym.norm() == 0:
                raise BadPrimeError(f"twist {twist} not coprime to {p}")
            val = val * sym
    elif field == "Q(w)":
        if p % 3 == 2:
            return 0
        alpha = split_prime_qomega(p)
        val = alpha**power
        if twist is not None:
            sym = residue_symbol_sextic(EisenInt(twist, 0), alpha)
            if sym.norm() == 0:
                raise BadPrimeError(f"twist {twist} not coprime to {p}")
            val = val * sym
    else:
        raise ValueError(field)
    b = val.trace()
    if dirichlet is not None:
        b *= dirichlet(p)
    return b


def coeff_from_weight2(b_p: int, p: int, target: str) -> int:
    """Coefficients of the square/cube of a weight-2 CM character at a
    split prime: weight 3 gives b^2 - 2p, weight 4 gives b^3 - 3pb."""
    if target == "weight3":
        return b_p * b_p - 2 * p
    if target == "weight4":
        return b_p**3 - 3 * p * b_p
    raise ValueError(target)


# ---------------------------------------------------------------------------
# elliptic curves


@dataclass(frozen=True)
class CurveSpec:
    """Long Weierstrass model [a1, a2, a3, a4, a6] over Q."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @staticmethod
    def short(A: int, B: int) -> "CurveSpec":
        return CurveSpec(0, 0, 0, A, B)

    def discriminant(self) -> int:
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        b8 = (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    def cm_family(self):
        """('j0', B) for y^2 = x^3 + B, ('j1728', A) for y^2 = x^3 + Ax."""
        if (self.a1, self.a2, self.a3) == (0, 0, 0):
            if self.a4 == 0 and self.a6 != 0:
                return ("j0", self.a6)
            if self.a6 == 0 and self.a4 != 0:
                return ("j1728", self.a4)
        return None


def ec_trace_naive(curve: CurveSpec, p: int) -> int:
    """a_p by an O(p) point count (the oracle for the CM fast paths)."""
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


def ec_trace(curve: CurveSpec, p: int) -> int:
    """a_p = p + 1 - #E(F_p).  CM curves in the two standard families take
    the residue-symbol fast path at split primes and return 0 at inert
    ones; everything else is counted directly."""
    if curve.discriminant() % p == 0:
        raise BadPrimeError(f"bad reduction at {p}")
    fam = curve.cm_family()
    if fam is not None and p > 3:
        kind, c = fam
        if kind == "j0":
            if p % 3 == 2:
                return 0
            alpha = split_prime_qomega(p)
            sym = residue_symbol_sextic(EisenInt(4 * c, 0), alpha)
            return (sym.conj() * alpha).trace()
        if p % 4 == 3:
            return 0
        alpha = split_prime_qi(p)
        sym = residue_symbol_quartic(GaussInt(-c, 0), alpha)
        return (sym.conj() * alpha).trace()
    return ec_trace_naive(curve, p)


# ---------------------------------------------------------------------------
# newform handles


@dataclass(frozen=True)
class NewformHandle:
    """A source of rational Fourier coefficients b_p.

    kind 'hecke': (field, power, twist, dirichlet); 'curve': CurveSpec;
    'file': path to a coefficient table.  weight drives the Weil bound;
    nebentypus is the quadratic character chi with b_p = chi(p) b_p
    (trivial for even weight)."""

    label: str
    weight: int
    level: int
    kind: str
    hecke: tuple | None = None
    curve: CurveSpec | None = None
    path: str | None = None
    cm_field: str | None = None
    nebentypus: QuadraticCharacter | None = None

    def __post_init__(self):
        if self.weight % 2 == 0 and self.nebentypus is not None:
            raise ValueError(f"{self.label}: even weight forces trivial nebentypus")
        if self.weight % 2 == 1 and self.nebentypus is None:
            raise ValueError(f"{self.label}: odd weight needs a quadratic nebentypus")

    def is_good(self, p: int) -> bool:
        return self.level % p != 0


_FILE_TABLES: dict[str, dict[int, int]] = {}


def load_coeffs(path: str) -> dict[int, int]:
    """Parse a coefficient file: '#' comments, 'p a_p' per line, primes
    ascending."""
    table: dict[int, int] = {}
    last = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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


def save_coeffs(path: str, table: dict[int, int], header: str = "") -> None:
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for p in sorted(table):
            fh.write(f"{p} {table[p]}\n")


def coeff(form: NewformHandle, p: int) -> int:
    """The coefficient b_p; raises BadPrimeError at primes dividing the
    level (or missing from a file table)."""
    if not form.is_good(p):
        raise BadPrimeError(f"{form.label}: {p} divides the level")
    if form.kind == "hecke":
        field, power, twist, dirichlet = form.hecke
        b = _hecke_coeff(field, power, p, twist, dirichlet)
    elif form.kind == "curve":
        b = ec_trace(form.curve, p)
    elif form.kind == "file":
        if form.path not in _FILE_TABLES:
            _FILE_TABLES[form.path] = load_coeffs(form.path)
        try:
            b = _FILE_TABLES[form.path][p]
        except KeyError:
            raise BadPrimeError(f"{form.label}: no coefficient for p={p} in file")
    else:
        raise ValueError(form.kind)
    if 4 * p ** (form.weight - 1) < b * b:
        raise ArithmeticError(f"{form.label}: b_{p}={b} breaks the Weil bound")
    return b


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FORMS: dict[str, NewformHandle] = {}


def _register(handle: NewformHandle) -> NewformHandle:
    FORMS[handle.label] = handle
    return handle


# weight-2 CM forms (elliptic curves with CM)
F_27_2A = _register(NewformHandle("27.2a", 2, 27, "hecke", hecke=("Q(w)", 1, None, None), cm_field="Q(w)"))
F_32_2A = _register(NewformHandle("32.2a", 2, 32, "hecke", hecke=("Q(i)", 1, None, None), cm_field="Q(i)"))
# weight-4 powers and their twists
F_9_4A = _register(NewformHandle("9.4a", 4, 9, "hecke", hecke=("Q(w)", 3, None, None), cm_field="Q(w)"))
F_32_4B = _register(NewformHandle("32.4b", 4, 32, "hecke", hecke=("Q(i)", 3, None, None), cm_field="Q(i)"))
F_144_4D = _register(NewformHandle("144.4d", 4, 144, "hecke", hecke=("Q(w)", 3, None, CHI4), cm_field="Q(w)"))
F_576_4_SEXTIC = _register(NewformHandle("576.4.sextic", 4, 576, "hecke", hecke=("Q(w)", 3, 2, None), cm_field="Q(w)"))
F_108_4C = _register(NewformHandle("108.4c", 4, 108, "hecke", hecke=("Q(w)", 3, 2, CHI24_B), cm_field="Q(w)"))
F_576_4_QUARTIC = _register(NewformHandle("576.4.quartic", 4, 576, "hecke", hecke=("Q(i)", 3, 3, None), cm_field="Q(i)"))
F_288_4D = _register(NewformHandle("288.4d", 4, 288, "hecke", hecke=("Q(i)", 3, -3, None), cm_field="Q(i)"))
# weight-3 forms (quadratic nebentypus = the CM field's Kronecker symbol)
F_16_3_3A = _register(NewformHandle("16.3.3a", 3, 16, "hecke", hecke=("Q(i)", 2, None, None), cm_field="Q(i)", nebentypus=CHI4))
F_27_3_5A = _register(NewformHandle("27.3.5a", 3, 27, "hecke", hecke=("Q(w)", 2, None, None), cm_field="Q(w)", nebentypus=KRONECKER_M3))
# the level-576 weight-3 quartic twist: the printed coefficient table pins
# an extra Kronecker-6 flip on top of the residue-symbol twist
F_576_3_QUARTIC = _register(NewformHandle("576.3.quartic", 3, 576, "hecke", hecke=("Q(i)", 2, 27, CHI6), cm_field="Q(i)", nebentypus=CHI4))
# non-CM weight 2 and the quartic-twist curve
F_11_2A = _register(NewformHandle("11.2a", 2, 11, "curve", curve=CurveSpec(0, -1, 1, -10, -20)))
F_256_2B = _register(NewformHandle("256.2b", 2, 256, "curve", curve=CurveSpec.short(-2, 0), cm_field="Q(i)"))
F_36_2A = _register(NewformHandle("36.2a", 2, 36, "curve", curve=CurveSpec.short(0, 1), cm_field="Q(w)"))
# non-CM weight 4, ingested from a shipped coefficient table
F_5_4A = _register(NewformHandle("5.4a", 4, 5, "file", path=os.path.join(_DATA_DIR, "5.4a.txt")))
