"""The five motive constructions as L-polynomial generators.

Each construction yields, for every good degree-1 prime p of its base
field, the integer pair (c1, c2) of the Euler factor

    p^6 T^4 + c1 p^3 T^3 + c2 p T^2 + c1 T + 1.

Coefficient formulas per construction (b/d/t are form coefficients or
Frobenius traces at p):

  direct sum (w2 f1, w4 f2):   c1 = -(p b + d)          c2 = b d + 2 p^2
  tensor E1 x Sym^2 E2:        c1 = -t1 (t2^2 - 2p)     c2 = p t1^2 + (t2^2-2p)^2 - 2p^2
  Sym^3 E:                     the tensor formulas with t1 = t2
  tensor (w2 f1, w3 f2):       c1 = -b d                c2 = chi(p) p b^2 + d^2 - 2 chi(p) p^2
                               (chi = nebentypus of f2)
  Dwork pencil at z:           c1 = -H_p                c2 = (H_p^2 - H_{p^2}) / 2p

Base change to a field K enters only through the degree-1 prime filter;
bad primes (dividing a level or discriminant, or degenerate pencil
fibers) raise SkippedPrime and are excluded from streams.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import cmforms, padic_hypergeom
from .cmforms import CurveSpec, NewformHandle, coeff, ec_trace
from .ntkernel import FieldSpec, Q, degree_one_primes
from .records import LPoly, NormalizedCoeffs, SkippedPrime, normalize

__all__ = [
    "DirectSum", "TensorEC", "SymCube", "TensorMF", "Dwork", "MotiveSpec",
    "LPoly", "NormalizedCoeffs", "normalize", "lpoly", "lpoly_stream",
    "a1_stream", "cached_lpoly_stream", "stream_primes",
]


@dataclass(frozen=True)
class DirectSum:
    f1: NewformHandle  # weight 2
    f2: NewformHandle  # weight 4

    def __post_init__(self):
        if (self.f1.weight, self.f2.weight) != (2, 4):
            raise ValueError("direct sum needs weights (2, 4)")

    def describe(self) -> str:
        return f"sum({self.f1.label},{self.f2.label})"

    def lpoly(self, p: int) -> LPoly:
        try:
            b = coeff(self.f1, p)
            d = coeff(self.f2, p)
        except cmforms.BadPrimeError as exc:
            raise SkippedPrime(str(exc))
        return LPoly(p, -(p * b + d), b * d + 2 * p * p)


@dataclass(frozen=True)
class TensorEC:
    e1: CurveSpec
    e2: CurveSpec

    def describe(self) -> str:
        return f"tensor_ec({_curve_tag(self.e1)},{_curve_tag(self.e2)})"

    def lpoly(self, p: int) -> LPoly:
        if self.e1.discriminant() % p == 0 or self.e2.discriminant() % p == 0:
            raise SkippedPrime(f"bad reduction at {p}")
        t1 = ec_trace(self.e1, p)
        t2 = ec_trace(self.e2, p)
        return _tensor_lpoly(p, t1, t2)


@dataclass(frozen=True)
class SymCube:
    e1: CurveSpec

    def describe(self) -> str:
        return f"symcube({_curve_tag(self.e1)})"

    def lpoly(self, p: int) -> LPoly:
        if self.e1.discriminant() % p == 0:
            raise SkippedPrime(f"bad reduction at {p}")
        t = ec_trace(self.e1, p)
        return _tensor_lpoly(p, t, t)


@dataclass(frozen=True)
class TensorMF:
    f1: NewformHandle  # weight 2
    f2: NewformHandle  # weight 3

    def __post_init__(self):
        if (self.f1.weight, self.f2.weight) != (2, 3):
            raise ValueError("tensor product needs weights (2, 3)")
        if self.f2.nebentypus is None:
            raise ValueError("weight-3 factor must carry its nebentypus")

    def describe(self) -> str:
        return f"tensor_mf({self.f1.label},{self.f2.label})"

    def lpoly(self, p: int) -> LPoly:
        try:
            b = coeff(self.f1, p)
            d = coeff(self.f2, p)
        except cmforms.BadPrimeError as exc:
            raise SkippedPrime(str(exc))
        chi = self.f2.nebentypus(p)
        if chi == 0:
            raise SkippedPrime(f"{p} divides the nebentypus modulus")
        return LPoly(p, -b * d, chi * p * b * b + d * d - 2 * chi * p * p)


@dataclass(frozen=True)
class Dwork:
    z: Fraction

    def describe(self) -> str:
        return f"dwork({self.z})"

    def lpoly(self, p: int) -> LPoly:
        return padic_hypergeom.dwork_lpoly(self.z, p)

    def c1_only(self, p: int) -> int:
        return padic_hypergeom.dwork_c1(self.z, p)


def _tensor_lpoly(p: int, t1: int, t2: int) -> LPoly:
    u = t2 * t2 - 2 * p
    return LPoly(p, -t1 * u, p * t1 * t1 + u * u - 2 * p * p)


def _curve_tag(c: CurveSpec) -> str:
    return f"[{c.a1},{c.a2},{c.a3},{c.a4},{c.a6}]"


@dataclass(frozen=True)
class MotiveSpec:
    construction: DirectSum | TensorEC | SymCube | TensorMF | Dwork
    base_field: FieldSpec = Q

    def describe(self) -> str:
        return f"{self.construction.describe()}/{self.base_field.name}"

    def spec_hash(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


def lpoly(spec: MotiveSpec, p: int) -> LPoly:
    """The L-polynomial at one degree-1 prime (SkippedPrime if bad)."""
    if not spec.base_field.is_degree_one(p):
        raise SkippedPrime(f"{p} is not degree 1 in {spec.base_field.name}")
    return spec.construction.lpoly(p)


def stream_primes(spec: MotiveSpec, bound: int) -> list[int]:
    """Degree-1 primes entering the statistics.  p = 2 is always skipped:
    the reference moment tables this library reproduces exclude it even
    where the constituents have good reduction there."""
    return [p for p in degree_one_primes(spec.base_field, bound) if p != 2]


def lpoly_stream(spec: MotiveSpec, bound: int):
    """Yield (p, LPoly) over good degree-1 primes p <= bound, ascending."""
    for p in stream_primes(spec, bound):
        try:
            yield p, spec.construction.lpoly(p)
        except SkippedPrime:
            continue


def a1_stream(spec: MotiveSpec, bound: int):
    """Yield (p, c1) pairs only; for the Dwork construction this avoids
    the O(p^2) second trace entirely."""
    for p in stream_primes(spec, bound):
        row = _row(spec, p, True)
        if row is not None:
            yield row


def _row(spec: MotiveSpec, p: int, a1_only: bool):
    """The stream row at p: (p, c1, c2), or (p, c1) when a1_only, through the
    construction's c1_only where it has one.  None if p is skipped."""
    cons = spec.construction
    try:
        if not a1_only:
            lp = cons.lpoly(p)
            return (p, lp.c1, lp.c2)
        fast = getattr(cons, "c1_only", None)
        return (p, fast(p) if fast is not None else cons.lpoly(p).c1)
    except SkippedPrime:
        return None


# ---------------------------------------------------------------------------
# stream caching (TSV 'p c1 c2', invalidated by the spec hash)


def cache_path(cache_dir: str, spec: MotiveSpec, bound: int, a1_only: bool) -> str:
    mode = "c1" if a1_only else "full"
    return os.path.join(cache_dir, f"{spec.spec_hash()}-{bound}-{mode}.tsv")


def write_stream_cache(path: str, spec: MotiveSpec, bound: int, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f"# spec={spec.describe()} bound={bound}\n")
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    os.replace(tmp, path)


def read_stream_cache(path: str, spec: MotiveSpec, bound: int):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"# spec={spec.describe()} bound={bound}":
            return None
        return [tuple(int(x) for x in line.split("\t")) for line in fh if line.strip()]


def cached_lpoly_stream(spec: MotiveSpec, bound: int, cache_dir: str | None,
                        a1_only: bool = False, jobs: int = 1):
    """Stream rows (p, c1[, c2]) with optional disk cache and parallelism."""
    path = cache_path(cache_dir, spec, bound, a1_only) if cache_dir else None
    if path:
        rows = read_stream_cache(path, spec, bound)
        if rows is not None:
            return rows
    rows = _stream_rows(spec, bound, a1_only, jobs)
    if path:
        write_stream_cache(path, spec, bound, rows)
    return rows


def _stream_rows(spec: MotiveSpec, bound: int, a1_only: bool, jobs: int):
    primes = stream_primes(spec, bound)
    row = partial(_row, spec, a1_only=a1_only)
    if jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            # chunksize 1: per-prime cost is wildly uneven (grows like p^2 for
            # the Dwork construction), so fine-grained dispatch balances better
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                return [r for r in ex.map(row, primes, chunksize=1) if r is not None]
        except (OSError, ImportError) as exc:
            warnings.warn(f"process pool unavailable ({exc!r}); computing {len(primes)} primes "
                          f"serially", RuntimeWarning, stacklevel=2)
    return [r for r in map(row, primes) if r is not None]
