"""Identity of the Dwork streams, the gamma tables, the H_p and H_{p^2} vectors,
the exact moment engine and the CM coefficients between two checkouts.

    PYTHONPATH=<old checkout>/src python tests/row_identity.py record rows.json
    PYTHONPATH=src python tests/row_identity.py check rows.json

`record` computes every entry with whichever stmotives is importable and
writes them as JSON; `check` computes them again and compares
them entry by entry.  The exit code is 0 when every entry matches and 1
otherwise; the first differing row of each stream is printed.  The rows are
(p, c1, c2) for every p <= 2^10 at each z of bench/workloads.DWORK_Z, and
(p, c1) for every p <= 2^14 at z in {-1, 2, 1/3}, all computed with
jobs = 2.  The tables are the SHA-256 of GammaTables(p, k).C, the cubic
Gamma_p(x0 + py) by residue x0, for every prime 7 <= p <= 2^10 and
p in {5791, 8191} at k = 1, 2, 3, 4.  The H_{p^2} entries are the SHA-256 of
hp2_poly(p, GammaTables(p, 4)), the coefficient vector in Teich(z), at
p in HP2_PRIMES: small primes that the dwork-c2 benchmark streams run, and
1021 up to 8191, past the 5791 where the retired int64 kernel stopped.  The
H_p entries are the SHA-256 of hp_poly(p, GammaTables(p, k)) at each (p, k)
of HP_VECTORS.  The moment
entries are, for every catalog group, the exact a1 moments M_0..M_18 and
a2 moments M_0..M_12, each component's `component_moment` at the same
orders (as str(Fraction)), and the group's `invariants`; these orders go
past the printed tables, and only `catalog`, `moment`, `component_moment`
and `invariants` are called, so a record can be taken at an older checkout.
The coefficient entries are `coeff` of every form in cmforms.FORMS and
`ec_trace` of every curve y^2 = x^3 + Ax + B of bench/workloads.CM_CURVES
at every prime 5 <= p <= 2^16, a skipped prime (BadPrimeError) recorded as null; they too
call only public names.  A kernel change keeps every entry bit-identical.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

from workloads import CM_CURVES, DWORK_Z  # noqa: E402

# (name, z, bound, a1_only)
STREAMS = ([(f"c1c2 z={z} B=2^10", z, 2**10, False) for z in DWORK_Z]
           + [(f"c1 z={z} B=2^14", z, 2**14, True) for z in ("-1", "2", "1/3")])
TABLE_PRIMES = [p for p in range(7, 2**10) if all(p % d for d in range(2, math.isqrt(p) + 1))]
TABLES = [(p, k) for p in TABLE_PRIMES + [5791, 8191] for k in (1, 2, 3, 4)]
HP2_PRIMES = (17, 61, 127, 251, 1021, 2039, 4093, 5791, 5801, 8191)
HP_VECTORS = ((1021, 2), (5791, 2), (8191, 2), (251, 4), (1021, 4))
MOMENT_ORDERS = {"a1": range(19), "a2": range(13)}
COEFF_BOUND = 2**16


def table_digest(p: int, k: int) -> str:
    from stmotives.padic_hypergeom import GammaTables

    return hashlib.sha256(json.dumps([list(c) for c in GammaTables(p, k).C]).encode()).hexdigest()


def vector_digest(kernel: str, p: int, k: int) -> str:
    """SHA-256 of the Teich(z) vector of padic_hypergeom.<kernel> at p and precision k."""
    from stmotives import padic_hypergeom as ph

    vec = getattr(ph, kernel)(p, ph.GammaTables(p, k))
    return hashlib.sha256(json.dumps(vec).encode()).hexdigest()


def moment_entries() -> dict[str, list]:
    from stmotives.stgroups import catalog, component_moment, invariants, moment

    out: dict[str, list] = {}
    for g in catalog():
        for coeff, ns in MOMENT_ORDERS.items():
            out[f"moment({g.name}, {coeff})"] = [moment(g, coeff, n) for n in ns]
            for i, comp in enumerate(g.components):
                out[f"component_moment({g.name} #{i} {comp.label}, {coeff})"] = [
                    str(component_moment(comp, coeff, n)) for n in ns]
        out[f"invariants({g.name})"] = list(invariants(g))
    return out


def coefficient_entries() -> dict[str, list]:
    from stmotives.cmforms import FORMS, BadPrimeError, CurveSpec, coeff, ec_trace
    from stmotives.ntkernel import primes_up_to

    def values(fn, arg):
        out = []
        for p in primes_up_to(COEFF_BOUND)[2:]:  # from p = 5
            try:
                out.append(fn(arg, p))
            except BadPrimeError:
                out.append(None)
        return out

    entries = {f"coeff({label})": values(coeff, form) for label, form in FORMS.items()}
    for c in CM_CURVES:
        entries[f"ec_trace({c})"] = values(ec_trace, CurveSpec.short(*map(int, c.split(","))))
    return entries


def compute() -> dict[str, list | str]:
    from stmotives import motives

    out: dict[str, list | str] = {}
    for name, z, bound, a1_only in STREAMS:
        t0 = time.perf_counter()
        spec = motives.MotiveSpec(motives.Dwork(Fraction(z)), motives.Q)
        rows = motives.cached_lpoly_stream(spec, bound, None, a1_only=a1_only, jobs=2)
        out[name] = [list(r) for r in rows]
        print(f"{name}: {len(rows)} rows, {time.perf_counter() - t0:.1f} s", flush=True)
    t0 = time.perf_counter()
    for p, k in TABLES:
        out[f"GammaTables({p}, {k}).C"] = table_digest(p, k)
    print(f"{len(TABLES)} gamma tables, {time.perf_counter() - t0:.1f} s", flush=True)
    t0 = time.perf_counter()
    for p in HP2_PRIMES:
        out[f"hp2_poly({p})"] = vector_digest("hp2_poly", p, 4)
    for p, k in HP_VECTORS:
        out[f"hp_poly({p}, {k})"] = vector_digest("hp_poly", p, k)
    print(f"{len(HP2_PRIMES)} hp2_poly and {len(HP_VECTORS)} hp_poly vectors, "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    t0 = time.perf_counter()
    moments = moment_entries()
    print(f"{len(moments)} moment and invariant entries, {time.perf_counter() - t0:.1f} s",
          flush=True)
    t0 = time.perf_counter()
    coeffs = coefficient_entries()
    print(f"{len(coeffs)} coefficient entries, {time.perf_counter() - t0:.1f} s", flush=True)
    return out | moments | coeffs


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("record", "check"):
        sys.stderr.write(__doc__)
        return 2
    action, path = argv
    entries = compute()
    if action == "record":
        with open(path, "w") as fh:
            json.dump(entries, fh)
        return 0
    with open(path) as fh:
        recorded = json.load(fh)
    bad = 0
    for name, new in entries.items():
        old = recorded.get(name)
        if old == new:
            continue
        bad += 1
        if old is None:
            print(f"MISMATCH {name}: not in {path}")
        elif isinstance(new, str):
            print(f"MISMATCH {name}: digest {old} -> {new}")
        else:
            diff = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                        min(len(old), len(new)))
            print(f"MISMATCH {name}: {len(old)} recorded items, {len(new)} now; first differing "
                  f"item {diff}: {old[diff:diff + 1]} -> {new[diff:diff + 1]}")
    n_coeffs = sum(name.startswith(("coeff(", "ec_trace(")) for name in entries)
    n_moments = (len(entries) - len(STREAMS) - len(TABLES) - len(HP2_PRIMES) - len(HP_VECTORS)
                 - n_coeffs)
    print(f"{len(entries) - bad} of {len(entries)} entries identical ({len(STREAMS)} streams, "
          f"{len(TABLES)} gamma tables, {len(HP2_PRIMES)} hp2_poly vectors, "
          f"{len(HP_VECTORS)} hp_poly vectors, "
          f"{n_moments} moment and invariant entries, "
          f"{n_coeffs} coefficient entries)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
