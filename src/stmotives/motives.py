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
fibers) raise SkippedPrime (cmforms.BadPrimeError is one) and are excluded
from streams.

cached_lpoly_stream is the one stream: rows (p, c1, c2), or (p, c1) with
a1_only (for the Dwork pencil c1 alone skips the H_{p^2} sum), over
stream_primes, from one row function _row on the serial, process-pool and
cached paths, with an optional TSV cache keyed by MotiveSpec.spec_hash.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import cmforms, padic_hypergeom
from .cmforms import CurveSpec, NewformHandle, coeff, ec_trace
from .ntkernel import FieldSpec, Q, degree_one_primes
from .records import ConsistencyError, LPoly, SkippedPrime

__all__ = [
    "DirectSum", "TensorEC", "SymCube", "TensorMF", "Dwork", "MotiveSpec",
    "LPoly", "cached_lpoly_stream", "stream_primes",
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
        d = coeff(self.f2, p)  # first: a weight-4 file table skips p before f1's point count
        b = coeff(self.f1, p)
        return LPoly(p, -(p * b + d), b * d + 2 * p * p)


@dataclass(frozen=True)
class TensorEC:
    e1: CurveSpec
    e2: CurveSpec

    def describe(self) -> str:
        return f"tensor_ec({self.e1},{self.e2})"

    def lpoly(self, p: int) -> LPoly:
        t1 = ec_trace(self.e1, p)
        t2 = ec_trace(self.e2, p)
        return _tensor_lpoly(p, t1, t2)


@dataclass(frozen=True)
class SymCube:
    e1: CurveSpec

    def describe(self) -> str:
        return f"symcube({self.e1})"

    def lpoly(self, p: int) -> LPoly:
        t = ec_trace(self.e1, p)
        return _tensor_lpoly(p, t, t)


@dataclass(frozen=True)
class TensorMF:
    f1: NewformHandle  # weight 2
    f2: NewformHandle  # weight 3, so it carries a nebentypus (NewformHandle requires one)

    def __post_init__(self):
        if (self.f1.weight, self.f2.weight) != (2, 3):
            raise ValueError("tensor product needs weights (2, 3)")

    def describe(self) -> str:
        return f"tensor_mf({self.f1.label},{self.f2.label})"

    def lpoly(self, p: int) -> LPoly:
        b = coeff(self.f1, p)
        d = coeff(self.f2, p)
        chi = self.f2.nebentypus(p)
        if chi == 0:
            raise SkippedPrime(f"{p} divides the nebentypus modulus")
        return LPoly(p, -b * d, chi * p * b * b + d * d - 2 * chi * p * p)


@dataclass(frozen=True)
class Dwork:
    """The Dwork pencil's fibre at z.  z is stored as a Fraction (an int, a
    float or a string such as "-1/3" is converted when built), so equal
    values give one describe() and one cache key.  A ValueError naming z refuses
    a z that is not a finite rational (None, 1j, inf, nan, "1/0") and z = 0, 1."""

    z: Fraction

    def __post_init__(self):
        try:
            object.__setattr__(self, "z", Fraction(self.z))
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(f"z={self.z!r} is not a rational number") from None
        if self.z in (0, 1):
            raise ValueError(f"z={self.z} is a degenerate fibre of the Dwork pencil at every prime")

    def describe(self) -> str:
        return f"dwork({self.z})"

    def lpoly(self, p: int) -> LPoly:
        return padic_hypergeom.dwork_lpoly(self.z, p)

    def c1_only(self, p: int) -> int:
        return padic_hypergeom.dwork_c1(self.z, p)


def _tensor_lpoly(p: int, t1: int, t2: int) -> LPoly:
    u = t2 * t2 - 2 * p
    return LPoly(p, -t1 * u, p * t1 * t1 + u * u - 2 * p * p)


@dataclass(frozen=True)
class MotiveSpec:
    construction: DirectSum | TensorEC | SymCube | TensorMF | Dwork
    base_field: FieldSpec = Q
    CACHE_FORMAT = 3  # stream-cache layout version, in the spec_hash key; bump on change

    def describe(self) -> str:
        return f"{self.construction.describe()}/{self.base_field.name}"

    def file_digests(self) -> list[bytes]:
        """The SHA-256 of each file form's contents, through cmforms.file_digest,
        so a file edited since its table was read is read again."""
        return [cmforms.file_digest(form.path) for form in vars(self.construction).values()
                if isinstance(form, NewformHandle) and form.kind == "file"]

    def spec_hash(self) -> str:
        h = hashlib.sha256(f"{self.CACHE_FORMAT}:{self.describe()}".encode())
        for digest in self.file_digests():  # a label stays when its file changes
            h.update(digest)
        return h.hexdigest()[:16]


def stream_primes(spec: MotiveSpec, bound: int) -> list[int]:
    """Degree-1 primes entering the statistics.  p = 2 is always skipped:
    the reference moment tables this library reproduces exclude it even
    where the constituents have good reduction there."""
    return [p for p in degree_one_primes(spec.base_field, bound) if p != 2]


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
# stream caching (TSV 'p c1 c2' under a header with the rows' SHA-256,
# invalidated by the spec hash)


def cache_path(cache_dir: str, spec: MotiveSpec, bound: int, a1_only: bool) -> str:
    mode = "c1" if a1_only else "full"
    return os.path.join(cache_dir, f"{spec.spec_hash()}-{bound}-{mode}.tsv")


def _cache_header(spec: MotiveSpec, bound: int) -> str:
    return f"# spec={spec.describe()} bound={bound} sha256="


def write_stream_cache(path: str, spec: MotiveSpec, bound: int, rows) -> None:
    """Write the rows, under a header that ends in the SHA-256 of the row lines,
    through a temporary file of this writer's own in the same directory, removed
    on failure; a cache that cannot be written (OSError) is a RuntimeWarning
    naming the path, not an error."""
    tmp = None
    body = "".join("\t".join(str(x) for x in row) + "\n" for row in rows)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(path) + ".",
                                   dir=os.path.dirname(path) or ".")
        with open(fd, "w") as fh:
            fh.write(_cache_header(spec, bound) + hashlib.sha256(body.encode()).hexdigest() + "\n")
            fh.write(body)
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"cannot write stream cache {path} ({exc}); not cached", RuntimeWarning,
                      stacklevel=2)
        if tmp is not None and os.path.isfile(tmp):
            os.remove(tmp)


def read_stream_cache(path: str, spec: MotiveSpec, bound: int):
    """The cached rows, or None on a miss: no file, another spec or bound, or, warned
    about, a corrupt file (a row not all integers, of the wrong width, past a Weil bound,
    or not at a prime of stream_primes(spec, bound) above the previous row's, or row
    lines whose SHA-256 is not the header's) or one that cannot be read (OSError, such
    as a directory at the path)."""
    if not os.path.exists(path):
        return None
    width = 2 if path.endswith("-c1.tsv") else 3  # the mode cache_path put in the name
    header = _cache_header(spec, bound)
    try:
        with open(path) as fh:
            head = fh.readline()
            if not head.startswith(header):
                return None
            body = fh.read()
        rows = [tuple(map(int, line.split("\t"))) for line in body.splitlines()]
        primes, last = set(stream_primes(spec, bound)), 0
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row {row} has {len(row)} fields, not {width}")
            if row[0] <= last or row[0] not in primes:
                raise ValueError(f"row {row} is not at a stream prime above {last}")
            last = row[0]
            LPoly(*row)
        # a dropped or edited row can pass every check above: skipped primes leave gaps
        if head[len(header):].rstrip("\n") != hashlib.sha256(body.encode()).hexdigest():
            raise ValueError("row lines do not match the header's SHA-256")
    except (ValueError, ConsistencyError) as exc:
        warnings.warn(f"corrupt stream cache {path} ({exc}); recomputing", RuntimeWarning,
                      stacklevel=2)
        return None
    except OSError as exc:
        warnings.warn(f"unreadable stream cache {path} ({exc}); recomputing", RuntimeWarning,
                      stacklevel=2)
        return None
    return rows


def cached_lpoly_stream(spec: MotiveSpec, bound: int, cache_dir: str | None,
                        a1_only: bool = False, jobs: int = 1):
    """The rows (p, c1, c2), or (p, c1) when a1_only, at the good primes of
    stream_primes(spec, bound), ascending; read from and written to a cache
    file under cache_dir when one is given, computed by `jobs` processes."""
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
    spec.file_digests()  # re-reads an edited file form, once per stream
    primes = stream_primes(spec, bound)
    row = partial(_row, spec, a1_only=a1_only)
    if jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            # the pool starts all its workers at once: no more than the CPUs or the
            # primes.  Per-prime cost grows with p (like p for Dwork c1), so the primes
            # go largest-first and the cheapest work is the stream's tail; about 16
            # chunks a worker keep the parent's messages few (1 prime a chunk below
            # 32 primes a worker).  The rows come back descending and are reversed
            workers = max(1, min(jobs, os.cpu_count() or 1, len(primes)))
            chunk = max(1, len(primes) // (16 * workers))
            with ProcessPoolExecutor(max_workers=workers) as ex:
                rows = list(ex.map(row, primes[::-1], chunksize=chunk))
            return [r for r in reversed(rows) if r is not None]
        except (OSError, ImportError) as exc:
            warnings.warn(f"process pool unavailable ({exc!r}); computing {len(primes)} primes "
                          f"serially", RuntimeWarning, stacklevel=2)
    return [r for r in map(row, primes) if r is not None]
