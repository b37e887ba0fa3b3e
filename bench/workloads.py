"""The benchmark's three workloads, their seeded inputs and output checks.

Every workload is closed-loop: one operation at a time, the next one sent
only after the previous one returned.  A round is a fixed list of
operations whose inputs are drawn from the seed; `run_round` returns the
round's timings and counts and records every failed operation (wrong
output, exception or non-zero exit) in the Checker.

  dwork-c2   one full (c1, c2) Dwork stream to B = 2^8 with jobs=2
  cli-cold   the README's CLI commands, one fresh process each
  lib-batch  non-Dwork streams, statistics, classification and sampling
             in one process
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

WORKLOADS = ("dwork-c2", "cli-cold", "lib-batch")

FIELDS = ("Q", "Q(i)", "Q(w)", "Q(i,w)", "Q(sqrt3)")
# the CM constructions of a round take a permutation of these four fields,
# so a round's prime count does not depend on the draw; Q(i,w) goes to
# the point-count/file construction
CM_FIELDS = ("Q", "Q(i)", "Q(w)", "Q(sqrt3)")
# small-height rationals other than 0 and 1; each degenerates only at p in {2, 3, 5}
DWORK_Z = ("-1", "2", "3", "1/2", "-2", "3/2", "-1/2", "2/3", "4", "1/3", "-3", "4/3")
DWORK_C2_BOUND = 2**8
DWORK_JOBS = 2
# y^2 = x^3 + B (j = 0) and y^2 = x^3 + Ax (j = 1728): the CM fast paths
CM_CURVES = ("0,1", "0,4", "0,-2", "0,16", "-1,0", "1,0", "2,0", "-4,0")
SUM_PAIRS = (("27.2a", "9.4a"), ("32.2a", "32.4b"), ("27.2a", "144.4d"), ("32.2a", "576.4.quartic"),
             ("36.2a", "108.4c"), ("256.2b", "288.4d"), ("27.2a", "576.4.sextic"), ("32.2a", "9.4a"))
TENSOR_EC_PAIRS = (("0,4", "0,1"), ("0,1", "0,1"), ("-1,0", "1,0"), ("0,-2", "-1,0"),
                   ("2,0", "0,4"), ("1,0", "0,16"), ("-4,0", "-4,0"), ("0,16", "2,0"))
TENSOR_MF_PAIRS = (("27.2a", "27.3.5a"), ("32.2a", "16.3.3a"), ("27.2a", "16.3.3a"),
                   ("32.2a", "576.3.quartic"), ("36.2a", "27.3.5a"), ("256.2b", "16.3.3a"),
                   ("27.2a", "576.3.quartic"), ("36.2a", "16.3.3a"))
# a point-counted (11.2a) and a file (5.4a) constituent, run at the small bound
COUNT_FILE = ("sum", ("11.2a", "5.4a"))
COUNT_FILE_FIELD = "Q(i,w)"
CM_KINDS = ("sum", "tensor-ec", "symcube", "tensor-mf")
CM_CHOICES = {"sum": SUM_PAIRS, "tensor-ec": TENSOR_EC_PAIRS,
              "symcube": tuple((c,) for c in CM_CURVES), "tensor-mf": TENSOR_MF_PAIRS}

# seed 0, round 0 draws the paper's inputs: the printed rows are
# sum(27.2a, 9.4a) over Q and the tensor product over Q(w)
PAPER_DRAW = {"sum": (SUM_PAIRS[0], "Q"), "tensor-ec": (TENSOR_EC_PAIRS[0], "Q(w)"),
              "symcube": ((CM_CURVES[0],), "Q(i)"), "tensor-mf": (TENSOR_MF_PAIRS[0], "Q(sqrt3)"),
              "count-file": (COUNT_FILE, COUNT_FILE_FIELD)}

CLI_BOUND_LOG2 = 16
CLI_DWORK_BOUND_LOG2 = 13
LIB_CM_BOUND = 2**18
LIB_COUNT_BOUND = 2**12
SAMPLE_DRAWS = 200_000
SAMPLE_FIXED_GROUP = "USp(4)"
# sampled statistics cannot split these families (test 8c): the classifier
# must put the true group in its top cluster
DEGENERATE = (frozenset({"C3", "C4", "C6", "F"}), frozenset({"J(C3)", "J(C4)", "J(C6)", "F_{ab}"}))

A1_NS = (2, 4, 6, 8, 10, 12)
A1_DECIMALS = (3, 3, 3, 2, 1, 0)
A2_DECIMALS = (3, 3, 3, 3, 3, 2, 1)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Checker:
    """Compares outputs with the paper's printed values and with digests
    recorded from the seed commit.  With record=True it stores digests
    instead of comparing them (the paper comparisons still apply)."""

    def __init__(self, expected: dict, record: bool = False):
        self.expected = expected
        self.record = record
        self.attempted = 0
        self.failed = 0  # operations with at least one failed check
        self.failures: list[str] = []
        self._op_failed = False

    @property
    def paper(self) -> dict:
        return self.expected["paper"]

    def op(self, label: str, fn):
        """Run one operation; an exception counts as a failure.  Returns
        the operation's result, or None if it raised."""
        self.attempted += 1
        self._op_failed = False
        try:
            return fn()
        except Exception:
            self.fail(f"{label}: raised\n{traceback.format_exc()}")
            return None

    def fail(self, msg: str) -> bool:
        """Record a wrong output; it fails the last operation run by op()."""
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        self.failures.append(msg)
        sys.stderr.write(f"CHECK FAILED {msg}\n")
        return False

    def same(self, what: str, got, want) -> bool:
        return True if got == want else self.fail(f"{what}: got {got!r}, want {want!r}")

    def digest(self, key: str, value) -> bool:
        d = digest(value)
        store = self.expected.setdefault("digests", {})
        if self.record:
            store[key] = d
            return True
        want = store.get(key)
        return True if d == want else self.fail(f"{key}: digest {d[:12]} != recorded {str(want)[:12]}")


# ---------------------------------------------------------------------------
# statistics recomputed by the harness (independent of stmotives.stats)


def _fmt(x: float, places: int) -> str:
    q = Decimal(1).scaleb(-places) if places else Decimal(1)
    return str(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_EVEN))


def stats_cells(rows) -> list[str]:
    """Printed-precision moment cells (a1 M2..M12, then a2 M1..M7)."""
    n = len(rows)
    a1 = [r[1] / r[0] ** 1.5 for r in rows]
    cells = [_fmt(math.fsum(x**k for x in a1) / n, d) for k, d in zip(A1_NS, A1_DECIMALS)]
    if len(rows[0]) > 2:
        a2 = [r[2] / r[0] ** 2 for r in rows]
        cells += [_fmt(math.fsum(x**k for x in a2) / n, d) for k, d in zip(range(1, 8), A2_DECIMALS)]
    return cells


def reference_rows(rows):
    """The printed Dwork tables' tabulation: start at p = 7 and lift c1
    from its balanced residue mod p^2."""
    out = []
    for row in rows:
        p = row[0]
        if p < 7:
            continue
        r = row[1] % (p * p)
        out.append((p, r - p * p if r > p * p // 2 else r) + tuple(row[2:]))
    return out


# ---------------------------------------------------------------------------
# seeded inputs


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def dwork_order(seed: int) -> list[str]:
    """The seed's order of the z list; seed 0 starts at the paper's z = -1."""
    zs = list(DWORK_Z)
    rng_for("dwork-c2", seed).shuffle(zs)
    if seed == 0:
        zs.remove("-1")
        zs.insert(0, "-1")
    return zs


def draw_round(rng: random.Random, seed: int, rnd: int) -> dict:
    """Constructions and fields for one cli-cold or lib-batch round: one
    seed-drawn construction of each CM kind on a seed-drawn permutation of
    CM_FIELDS, plus the point-count/file construction."""
    if seed == 0 and rnd == 0:
        return dict(PAPER_DRAW)
    fields = rng.sample(CM_FIELDS, len(CM_FIELDS))
    draw = {kind: (rng.choice(CM_CHOICES[kind]), fields[i]) for i, kind in enumerate(CM_KINDS)}
    draw["count-file"] = (COUNT_FILE, COUNT_FILE_FIELD)
    return draw


def motive_argv(kind: str, args: tuple, field: str, bound_log2: int) -> list[str]:
    flags = ("--e1", "--e2") if kind in ("tensor-ec", "symcube") else ("--f1", "--f2")
    argv = ["motive", kind]
    for flag, val in zip(flags, args):
        # a curve like -1,0 would read as an option
        argv += [f"{flag}={val}"] if val.startswith("-") else [flag, val]
    return argv + ["--field", field, "--bound-log2", str(bound_log2)]


def make_spec(kind: str, args: tuple, field: str):
    from stmotives import motives
    from stmotives.cmforms import FORMS, CurveSpec
    from stmotives.ntkernel import FIELD_ALIASES

    def curve(text):
        parts = [int(t) for t in text.split(",")]
        return CurveSpec.short(*parts) if len(parts) == 2 else CurveSpec(*parts)

    cons = {"sum": lambda: motives.DirectSum(FORMS[args[0]], FORMS[args[1]]),
            "tensor-ec": lambda: motives.TensorEC(curve(args[0]), curve(args[1])),
            "symcube": lambda: motives.SymCube(curve(args[0])),
            "tensor-mf": lambda: motives.TensorMF(FORMS[args[0]], FORMS[args[1]])}[kind]()
    return motives.MotiveSpec(cons, FIELD_ALIASES[field])


# ---------------------------------------------------------------------------
# measurement helpers


def cpu_now() -> tuple[float, float]:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


class Round:
    """Timings of one round: only the operations are timed, not the checks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.child_cpu = 0.0
        self.primes = 0
        self.ops: dict[str, float] = {}

    def timed(self, name: str, fn):
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            c1 = cpu_now()
            self.wall += dt
            self.child_cpu += c1[1] - c0[1]
            self.cpu += (c1[0] - c0[0]) + (c1[1] - c0[1])
            self.ops[name] = self.ops.get(name, 0.0) + dt

    def as_dict(self) -> dict:
        return {"wall": self.wall, "cpu": self.cpu, "child_cpu": self.child_cpu,
                "primes": self.primes, "ops": self.ops}


def child_env() -> dict:
    """Environment of every child process: the checkout's sources and no
    user stream cache (which would turn every stream into a cache hit)."""
    env = dict(os.environ)
    env.pop("STMOTIVES_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


def run_cmd(argv: list[str], cwd: str, env: dict, timeout: float = 170.0):
    """Run a child in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, err = proc.communicate()
    return proc.returncode, out, err


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """State of one workload across the rounds of a run."""

    def __init__(self, name: str, seed: int, checker: Checker, tmp_dir: str):
        self.name = name
        self.seed = seed
        self.check = checker
        self.tmp = os.path.abspath(tmp_dir)
        self.rng = rng_for(name, seed)
        self.rounds = 0
        self.cli_launcher = [sys.executable, "-m", "stmotives.cli"]
        self.env = child_env()
        self.pool_efficiency: list[float] = []
        if name != "cli-cold":
            sys.path.insert(0, SRC)

    def run_round(self, draw: dict | None = None, fixed: bool = True) -> Round:
        """One round.  `draw` overrides the seed's inputs and fixed=False
        leaves out the cli-cold commands that take no drawn input (both
        are used only to record the expected digests)."""
        rnd = Round()
        if self.name == "dwork-c2":
            order = dwork_order(self.seed)
            self._dwork(rnd, draw or order[self.rounds % len(order)])
        else:
            draw = draw or draw_round(self.rng, self.seed, self.rounds)
            if self.name == "cli-cold":
                self._cli(rnd, draw, fixed)
            else:
                self._lib(rnd, draw)
        self.rounds += 1
        return rnd

    # -- dwork-c2 ---------------------------------------------------------

    def _dwork(self, rnd: Round, z: str):
        from stmotives import motives
        from stmotives.ntkernel import Q

        spec = motives.MotiveSpec(motives.Dwork(Fraction(z)), Q)
        key = f"dwork-c2 {spec.describe()} B={DWORK_C2_BOUND}"
        rows = self.check.op(key, lambda: rnd.timed("stream", lambda: motives.cached_lpoly_stream(
            spec, DWORK_C2_BOUND, cache_dir=None, jobs=DWORK_JOBS)))
        if rows is None:
            return
        rnd.primes += len(rows)
        self.pool_efficiency.append(rnd.child_cpu / (rnd.wall * DWORK_JOBS))
        if rnd.child_cpu <= 0.0:
            self.check.fail(f"{key}: jobs={DWORK_JOBS} but the workers used no CPU "
                            "(silent serial fallback)")
        self.check.digest(key, rows)

    # -- cli-cold ---------------------------------------------------------

    def _cmd(self, rnd: Round, name: str, argv: list[str]):
        """One fresh CLI process; returns its stdout, or None on failure."""
        label = "cli " + " ".join(argv)
        res = self.check.op(label, lambda: rnd.timed(name, lambda: run_cmd(
            self.cli_launcher + argv, self.tmp, self.env)))
        if res is None:
            return None
        code, out, err = res
        if code != 0:
            self.check.fail(f"{label}: exit {code}: {err[-500:]}")
            return None
        rnd.primes += _primes(out)
        return out

    def _cli_groups(self, rnd: Round):
        """The group commands, checked against the paper's tables."""
        paper = self.check.paper
        for coeff, table in (("a1", paper["A1_MOMENTS"]), ("a2", paper["A2_MOMENTS"])):
            out = self._cmd(rnd, f"groups_table_{coeff}", ["groups", "table", "--coeff", coeff])
            if out is not None:
                got = {ln.split("\t")[0]: [int(v) for v in ln.split("\t")[1:]]
                       for ln in out.splitlines() if not ln.startswith("#")}
                self.check.same(f"groups table {coeff} vs paper", got, table)
        out = self._cmd(rnd, "groups_invariants", ["groups", "invariants"])
        if out is not None:
            got = {}
            for ln in out.splitlines()[1:]:
                name, d, c, z1, z2, lbl = ln.split("\t")
                got[name] = [int(d), int(c), int(z1), [int(v) for v in z2.strip("[]").split(",")], lbl]
            self.check.same("groups invariants vs paper", got, paper["INVARIANTS"])

    def _cli(self, rnd: Round, draw: dict, fixed: bool):
        paper = self.check.paper
        seed0 = self.seed == 0 and self.rounds == 0
        if fixed:
            self._cli_groups(rnd)
        stats_file = os.path.join(self.tmp, f"stats-{self.rounds}.tsv")
        for kind in CM_KINDS:
            args, field = draw[kind]
            argv = motive_argv(kind, args, field, CLI_BOUND_LOG2)
            if kind == "sum":
                argv.append("--classify")
            out_file = ["--out", stats_file] if kind == "tensor-ec" else []
            out = self._cmd(rnd, "motive_" + kind.replace("-", "_"), argv + out_file)
            if out is None:
                continue
            if out_file:
                with open(stats_file) as fh:
                    out = fh.read()
                rnd.primes += _primes(out)
            self.check.digest("cli " + " ".join(argv), out)
            if seed0 and kind == "sum":
                self.check.same("sum 27.2a+9.4a/Q B=2^16 vs printed row",
                                _data_cells(out), paper["ROW_MFSUM_JC1_16"])
            if seed0 and kind == "tensor-ec":
                self.check.same("tensor-ec /Q(w) B=2^16 vs printed row",
                                _data_cells(out), paper["ROW_ECPROD_C3_16"])

        out = self._cmd(rnd, "stats_classify", ["stats", "classify", "--in", stats_file])
        if out is not None:
            args, field = draw["tensor-ec"]
            src = " ".join(motive_argv("tensor-ec", args, field, CLI_BOUND_LOG2))
            self.check.digest(f"cli stats classify <{src}>", out)
            if seed0:
                self.check.same("classify of the printed tensor-ec row", out.split("\t")[1], "C3")
        if fixed:
            self._cli_dwork(rnd)

    def _cli_dwork(self, rnd: Round):
        paper = self.check.paper
        # the README's Dwork command, run twice on a fresh cache: a miss that
        # writes the stream, then a hit that must print the same
        cache_dir = os.path.join(self.tmp, f"cache-{self.rounds}")
        argv = ["motive", "dwork", "--coeffs", "a1", "--bound-log2", str(CLI_DWORK_BOUND_LOG2),
                "--jobs", "2"]
        miss = self._cmd(rnd, "motive_dwork", argv + ["--cache-dir", cache_dir])
        hit = self._cmd(rnd, "motive_dwork_cached", argv + ["--cache-dir", cache_dir])
        if miss is not None:
            self.check.digest("cli " + " ".join(argv), miss)
            files = glob.glob(os.path.join(cache_dir, "*.tsv"))
            if self.check.same("dwork cache files written", len(files), 1):
                with open(files[0]) as fh:
                    rows = [tuple(int(x) for x in ln.split("\t")) for ln in fh if not ln.startswith("#")]
                self.check.same("dwork z=-1 B=2^13 a1 vs printed row",
                                stats_cells(reference_rows(rows)), paper["ROW_USP4_13_A1"])
            if hit is not None:
                self.check.same("cache hit output equals cache miss output", hit, miss)
        shutil.rmtree(cache_dir, ignore_errors=True)

    # -- lib-batch --------------------------------------------------------

    def _lib(self, rnd: Round, draw: dict):
        from stmotives import motives, stats, stgroups

        seed0 = self.seed == 0 and self.rounds == 0
        jobs = [(kind, draw[kind][0], draw[kind][1], LIB_CM_BOUND) for kind in CM_KINDS]
        (kind, args), field = draw["count-file"]
        jobs.append((kind, args, field, LIB_COUNT_BOUND))
        for kind, args, field, bound in jobs:
            spec = make_spec(kind, args, field)
            key = f"lib-batch {spec.describe()} B={bound}"
            rows = self.check.op(key, lambda: rnd.timed("stream", lambda: motives.cached_lpoly_stream(
                spec, bound, None, jobs=1)))
            if rows is None:
                continue
            rnd.primes += len(rows)
            st = self.check.op(key + " stats", lambda: rnd.timed(
                "moment_statistics", lambda: stats.moment_statistics(rows, bound)))
            if st is None:
                continue
            res = self.check.op(key + " classify", lambda: rnd.timed(
                "classify", lambda: stats.classify(st)))
            if res is None:
                continue
            self.check.digest(key, (rows, stats.stats_row(st), [n for n, _ in res.ranked],
                                    res.clusters))
            if seed0 and kind in ("sum", "tensor-ec") and bound == LIB_CM_BOUND:
                row = {"sum": "ROW_MFSUM_JC1_16", "tensor-ec": "ROW_ECPROD_C3_16"}[kind]
                self.check.same(f"{key} rows p <= 2^16 vs printed row",
                                stats_cells([r for r in rows if r[0] <= 2**16]),
                                self.check.paper[row])
        names = [g.name for g in stgroups.catalog()]
        other = self.rng.choice([n for n in names if n != SAMPLE_FIXED_GROUP])
        for name in (SAMPLE_FIXED_GROUP, other):
            self.sample(rnd, name, names.index(name) + 1)

    def sample(self, rnd: Round, name: str, sample_seed: int):
        """sample_many then classify of the sampled statistics (test 8c)."""
        import numpy as np

        from stmotives import stats, stgroups

        key = f"lib-batch sample {name} n={SAMPLE_DRAWS} seed={sample_seed}"
        res = self.check.op(key, lambda: rnd.timed("sample_many", lambda: stgroups.sample_many(
            name, SAMPLE_DRAWS, seed=sample_seed)))
        if res is None:
            return
        s1, s2 = res
        paper = self.check.paper
        for coeff, vals, table, ns in (("a1", s1, paper["A1_MOMENTS"][name], range(2, 9, 2)),
                                       ("a2", s2, paper["A2_MOMENTS"][name], range(1, 9))):
            for i, n in enumerate(ns):
                powers = vals**n
                emp, sig = float(np.mean(powers)), float(np.std(powers)) / SAMPLE_DRAWS**0.5
                if abs(emp - table[i]) > 5 * sig + 1e-9:
                    self.check.fail(f"{key}: {coeff} M{n} = {emp} vs exact {table[i]} (5 sigma {5 * sig})")
        st = stats.MomentStats(0, SAMPLE_DRAWS, {n: float(np.mean(s1**n)) for n in stats.A1_NS},
                               {n: float(np.mean(s2**n)) for n in stats.A2_NS})
        result = self.check.op(key + " classify", lambda: rnd.timed(
            "classify", lambda: stats.classify(st)))
        if result is None:
            return
        family = next((fam for fam in DEGENERATE if name in fam), None)
        if family is None:
            self.check.same(f"{key}: classified group", result.top, name)
        elif result.top not in family or name not in result.clusters[0]:
            self.check.fail(f"{key}: top {result.top}, cluster {result.clusters[0]}")


def _primes(text: str) -> int:
    """Retained primes named by the `# ... primes=N` header lines of a CLI output."""
    return sum(int(line.rsplit("primes=", 1)[1]) for line in text.splitlines()
               if line.startswith("# ") and " primes=" in line)


def _data_cells(text: str) -> list[str]:
    """Moment cells of the data row of an emitted statistics table."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return rows[-1].split("\t")[1:]
