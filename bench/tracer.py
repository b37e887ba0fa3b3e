"""Span tracing for the benchmark's traced run.

The library is not edited: `install` wraps a fixed set of public
functions of the `stmotives` modules at run time and rebinds every module
attribute that refers to them, so calls made through `from x import f`
names are timed as well.

A call to a coarse function (a stream, a classification, one Dwork prime)
becomes one span: id, parent, name, start, end, pid, run id, error and
attributes.  Per-prime leaf functions (coefficients, traces, residue
symbols, group moments) run 10^5 times per stream, so their calls are
rolled up per (parent span, name, kind) into one record that counts the
calls, their total time and their summed p; a rollup has an id of its own
and parents the calls made inside it.  Records stay in memory and are
written out as JSON lines when the traced process ends; a forked worker
of the library's process pool writes its records each time it returns
from a top-level traced call, because pool workers run no exit handlers.
A worker's top-level calls name as parent the span that was open in the
parent process when the worker was forked (`parent_proc`, `parent`).

`aggregate` turns the records of a traced run into the per-layer metrics
listed in PER_LAYER.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = [
    ("ntkernel.degree_one_primes.s", "s", "lower"),
    ("ntkernel.split_prime.s", "s", "lower"),
    ("ntkernel.split_prime.calls", "count", "lower"),
    ("ntkernel.residue_symbol.s", "s", "lower"),
    ("ntkernel.residue_symbol.calls", "count", "lower"),
    ("padic.gamma_tables.s", "s", "lower"),
    ("padic.dwork_lpoly.s", "s", "lower"),
    ("padic.dwork_lpoly.calls", "count", "lower"),
    ("padic.dwork_lpoly.ns_per_p2", "ns", "lower"),
    ("padic.dwork_lpoly.max_ms", "ms", "lower"),
    ("padic.dwork_c1.s", "s", "lower"),
    ("padic.dwork_c1.calls", "count", "lower"),
    ("padic.dwork_c1.ns_per_p", "ns", "lower"),
    ("padic.skipped", "count", "lower"),
    ("cmforms.coeff.hecke.s", "s", "lower"),
    ("cmforms.coeff.hecke.calls", "count", "lower"),
    ("cmforms.coeff.file.s", "s", "lower"),
    ("cmforms.coeff.file.calls", "count", "lower"),
    ("cmforms.ec_trace.cm.s", "s", "lower"),
    ("cmforms.ec_trace.cm.calls", "count", "lower"),
    ("cmforms.ec_trace.count.s", "s", "lower"),
    ("cmforms.ec_trace.count.calls", "count", "lower"),
    ("cmforms.ec_trace.count.ns_per_p", "ns", "lower"),
    ("motives.stream.sum.s", "s", "lower"),
    ("motives.stream.tensor_ec.s", "s", "lower"),
    ("motives.stream.symcube.s", "s", "lower"),
    ("motives.stream.tensor_mf.s", "s", "lower"),
    ("motives.stream.dwork.s", "s", "lower"),
    ("motives.stream.kept_ratio", "ratio", "higher"),
    ("motives.cache.miss_s", "s", "lower"),
    ("motives.cache.hit_s", "s", "lower"),
    ("motives.cache.hit_ratio", "ratio", "higher"),
    ("motives.pool.cpu_efficiency", "ratio", "higher"),
    ("motives.pool.wait_s", "s", "lower"),
    ("stgroups.moment.s", "s", "lower"),
    ("stgroups.moment.calls", "count", "lower"),
    ("laurent.lp_pow.s", "s", "lower"),
    ("laurent.expectation.s", "s", "lower"),
    ("stgroups.invariants.s", "s", "lower"),
    ("stgroups.sample_many.s", "s", "lower"),
    ("stgroups.sample_many.draws_per_s", "1/s", "higher"),
    ("stats.moment_statistics.s", "s", "lower"),
    ("stats.moment_statistics.rows_per_s", "1/s", "higher"),
    ("stats.classify.first_s", "s", "lower"),
    ("stats.classify.repeat_s", "s", "lower"),
    ("stats.classify.calls", "count", "lower"),
    ("cli.groups_table_a1.s", "s", "lower"),
    ("cli.groups_table_a2.s", "s", "lower"),
    ("cli.groups_invariants.s", "s", "lower"),
    ("cli.motive_sum.s", "s", "lower"),
    ("cli.motive_tensor_ec.s", "s", "lower"),
    ("cli.motive_symcube.s", "s", "lower"),
    ("cli.motive_tensor_mf.s", "s", "lower"),
    ("cli.motive_dwork.s", "s", "lower"),
    ("cli.motive_dwork_cached.s", "s", "lower"),
    ("cli.stats_classify.s", "s", "lower"),
    ("self.ntkernel.s", "s", "lower"),
    ("self.padic_hypergeom.s", "s", "lower"),
    ("self.cmforms.s", "s", "lower"),
    ("self.motives.s", "s", "lower"),
    ("self.laurent.s", "s", "lower"),
    ("self.stgroups.s", "s", "lower"),
    ("self.stats.s", "s", "lower"),
    ("self.cli.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_KIND = {"DirectSum": "sum", "TensorEC": "tensor_ec", "SymCube": "symcube",
         "TensorMF": "tensor_mf", "Dwork": "dwork"}


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.spans: list[dict] = []
        self.rollups: dict[tuple, dict] = {}
        self.stack: list[int] = []
        self.ids = itertools.count(1)
        self._set_process()
        self.worker = False
        self.fork_parent: tuple[str, int] | None = None
        os.register_at_fork(after_in_child=self._forked)

    def _set_process(self):
        # pids can be reused within a run; the start time makes the key unique
        self.pid = os.getpid()
        self.proc = f"{self.pid}.{time.perf_counter_ns()}"

    def _forked(self):
        if self.stack:
            self.fork_parent = (self.proc, self.stack[-1])
        self.spans = []
        self.rollups = {}
        self.stack = []
        self._set_process()
        self.worker = True

    def _record(self, parent, name, attrs, rollup):
        parent_proc = self.proc
        if parent is None and self.fork_parent is not None:
            parent_proc, parent = self.fork_parent
        if not rollup:
            rec = {"id": next(self.ids), "parent": parent, "parent_proc": parent_proc, "name": name,
                   "calls": 1, "total": 0.0, "attrs": attrs}
            self.spans.append(rec)
            return rec
        key = (parent, name, attrs.get("kind") or attrs.get("path"))
        rec = self.rollups.get(key)
        if rec is None:
            rec = self.rollups[key] = {"id": next(self.ids), "parent": parent,
                                       "parent_proc": parent_proc, "name": name,
                                       "calls": 0, "total": 0.0, "p_sum": 0,
                                       "attrs": {k: v for k, v in attrs.items() if k != "p"}}
        return rec

    def wrap(self, name: str, fn, pre=None, post=None, rollup: bool = False):
        """Return fn timed under `name`.  pre(args, kwargs) and post(result)
        add attributes; pre runs before the clock starts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = pre(args, kwargs) if pre else {}
            rec = tracer._record(tracer.stack[-1] if tracer.stack else None, name, attrs, rollup)
            tracer.stack.append(rec["id"])
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                if rollup:
                    rec["calls"] += 1
                    rec["total"] += t1 - t0
                    rec["p_sum"] += attrs.get("p", 0)
                else:
                    rec.update(start=t0, end=t1, total=t1 - t0, error=error)
                    if error is None and post:
                        attrs.update(post(result))
                if tracer.worker and not tracer.stack:
                    tracer.flush()
            return result

        return traced

    def flush(self):
        records = self.spans + list(self.rollups.values())
        if not records:
            return
        path = os.path.join(self.out_dir, f"spans-{self.proc}.jsonl")
        with open(path, "a") as fh:
            for rec in records:
                fh.write(json.dumps(dict(rec, pid=self.pid, proc=self.proc, run=self.run_id)) + "\n")
        self.spans = []
        self.rollups = {}


def _p_arg(args, kwargs):
    return {"p": int(args[1])}


def _coeff_pre(args, kwargs):
    return {"kind": args[0].kind}


def _ec_trace_pre(args, kwargs):
    curve, p = args[0], args[1]
    fast = curve.cm_family() is not None and p > 3
    return {"path": "cm" if fast else "count", "p": int(p)}


def _stream_pre(args, kwargs):
    from stmotives import motives

    spec, bound = args[0], args[1]
    cache_dir = args[2] if len(args) > 2 else kwargs.get("cache_dir")
    a1_only = args[3] if len(args) > 3 else kwargs.get("a1_only", False)
    jobs = args[4] if len(args) > 4 else kwargs.get("jobs", 1)
    cache = "none"
    if cache_dir:
        path = motives.cache_path(cache_dir, spec, bound, a1_only)
        cache = "hit" if os.path.exists(path) else "miss"
    return {"kind": _KIND[type(spec.construction).__name__], "field": spec.base_field.name,
            "bound": int(bound), "cache": cache, "jobs": int(jobs)}


def _len_result(result):
    return {"rows": len(result)}


def _rows_pre(args, kwargs):
    rows = args[0]
    return {"rows": len(rows)} if hasattr(rows, "__len__") else {}


def _count_pre(args, kwargs):
    return {"count": int(args[1] if len(args) > 1 else kwargs["count"])}


def install(tracer: Tracer) -> None:
    """Wrap the traced public functions of every stmotives module."""
    import sys

    from stmotives import cli, cmforms, laurent, motives, ntkernel, padic_hypergeom, stats, stgroups

    # (module, function, span name, pre, post, rolled up per parent)
    targets = [
        (ntkernel, "degree_one_primes", "ntkernel.degree_one_primes", None, None, False),
        (ntkernel, "split_prime_qi", "ntkernel.split_prime", None, None, True),
        (ntkernel, "split_prime_qomega", "ntkernel.split_prime", None, None, True),
        (ntkernel, "residue_symbol_quartic", "ntkernel.residue_symbol", None, None, True),
        (ntkernel, "residue_symbol_sextic", "ntkernel.residue_symbol", None, None, True),
        (padic_hypergeom, "dwork_lpoly", "padic_hypergeom.dwork_lpoly", _p_arg, None, False),
        (padic_hypergeom, "dwork_c1", "padic_hypergeom.dwork_c1", _p_arg, None, False),
        (cmforms, "coeff", "cmforms.coeff", _coeff_pre, None, True),
        (cmforms, "ec_trace", "cmforms.ec_trace", _ec_trace_pre, None, True),
        (motives, "cached_lpoly_stream", "motives.cached_lpoly_stream", _stream_pre, _len_result,
         False),
        (stgroups, "moment", "stgroups.moment", None, None, True),
        (stgroups, "invariants", "stgroups.invariants", None, None, False),
        (stgroups, "sample_many", "stgroups.sample_many", _count_pre, None, False),
        (laurent, "lp_pow", "laurent.lp_pow", None, None, True),
        (laurent, "expectation", "laurent.expectation", None, None, True),
        (stats, "moment_statistics", "stats.moment_statistics", _rows_pre, None, False),
        (stats, "classify", "stats.classify", None, None, False),
        (cli, "main", "cli.main", None, None, False),
    ]
    mods = [m for n, m in sys.modules.items() if n == "stmotives" or n.startswith("stmotives.")]
    for mod, attr, name, pre, post, rollup in targets:
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, pre, post, rollup)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    # the gamma tables are built by calling the class: time its constructor
    gt = padic_hypergeom.GammaTables
    gt.__init__ = tracer.wrap("padic_hypergeom.GammaTables", gt.__init__)


def install_from_env() -> Tracer | None:
    """Install a tracer when BENCH_TRACE_DIR is set (traced child processes)."""
    out = os.environ.get("BENCH_TRACE_DIR")
    if not out:
        return None
    tracer = Tracer(out, os.environ.get("BENCH_RUN_ID", "run"))
    install(tracer)
    return tracer


# ---------------------------------------------------------------------------
# aggregation


def load_spans(trace_dir: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def serial_fallbacks(records: list[dict]) -> list[str]:
    """Streams computed with jobs > 1 of which no pool worker recorded a call:
    the library ran them serially."""
    pooled = {(r["parent_proc"], r["parent"]) for r in records if r["parent_proc"] != r["proc"]}
    return [f"{r['attrs']['kind']}/{r['attrs']['field']} B={r['attrs']['bound']} "
            f"jobs={r['attrs']['jobs']}: no pool worker ran a traced call (silent serial fallback)"
            for r in records
            if r["name"] == "motives.cached_lpoly_stream" and r["attrs"]["jobs"] > 1
            and r["attrs"]["cache"] != "hit" and r["error"] is None
            and (r["proc"], r["id"]) not in pooled]


def _considered_primes(field: str, bound: int) -> int:
    from stmotives import motives
    from stmotives.ntkernel import FIELDS

    return len(motives.stream_primes(motives.MotiveSpec(None, FIELDS[field]), bound))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(xs: list[float]) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the intervals cover."""
    covered, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            covered += e - s
            reach = e
    return covered


def aggregate(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the records of a traced run.  `.s` is the
    inclusive time of all calls; `self.<layer>.s` is the time spent in a
    layer's own code: a record's time minus the part of it that the calls
    it made cover.  Calls made in the same process run one after another,
    so their times add up; calls made in pool workers overlap, so a span
    that waits on a pool loses the union of their intervals (the pool wait,
    reported as `motives.pool.wait_s` for streams) instead."""
    m: dict[str, float] = {}
    by_name = defaultdict(list)
    for r in records:
        by_name[r["name"]].append(r)

    def total(rs):
        return sum(r["total"] for r in rs)

    def calls(rs):
        return sum(r["calls"] for r in rs)

    def put(prefix, rs):
        m[prefix + ".s"] = total(rs)
        m[prefix + ".calls"] = calls(rs)

    def where(name, key, value):
        return [r for r in by_name[name] if r["attrs"].get(key) == value]

    m["ntkernel.degree_one_primes.s"] = total(by_name["ntkernel.degree_one_primes"])
    put("ntkernel.split_prime", by_name["ntkernel.split_prime"])
    put("ntkernel.residue_symbol", by_name["ntkernel.residue_symbol"])

    m["padic.gamma_tables.s"] = total(by_name["padic_hypergeom.GammaTables"])
    lp = by_name["padic_hypergeom.dwork_lpoly"]
    put("padic.dwork_lpoly", lp)
    m["padic.dwork_lpoly.ns_per_p2"] = _ratio(1e9 * total(lp), sum(r["attrs"]["p"] ** 2 for r in lp))
    m["padic.dwork_lpoly.max_ms"] = 1e3 * max((r["total"] for r in lp), default=0.0)
    c1 = by_name["padic_hypergeom.dwork_c1"]
    put("padic.dwork_c1", c1)
    m["padic.dwork_c1.ns_per_p"] = _ratio(1e9 * total(c1), sum(r["attrs"]["p"] for r in c1))
    m["padic.skipped"] = sum(1 for r in lp + c1 if r["error"] == "DegenerateFiber")

    put("cmforms.coeff.hecke", where("cmforms.coeff", "kind", "hecke"))
    put("cmforms.coeff.file", where("cmforms.coeff", "kind", "file"))
    put("cmforms.ec_trace.cm", where("cmforms.ec_trace", "path", "cm"))
    counted = where("cmforms.ec_trace", "path", "count")
    put("cmforms.ec_trace.count", counted)
    m["cmforms.ec_trace.count.ns_per_p"] = _ratio(1e9 * total(counted),
                                                  sum(r["p_sum"] for r in counted))

    streams = [r for r in by_name["motives.cached_lpoly_stream"] if r["error"] is None]
    for kind in ("sum", "tensor_ec", "symcube", "tensor_mf", "dwork"):
        m[f"motives.stream.{kind}.s"] = total(r for r in streams if r["attrs"]["kind"] == kind)
    considered = sum(_considered_primes(r["attrs"]["field"], r["attrs"]["bound"]) for r in streams)
    m["motives.stream.kept_ratio"] = _ratio(sum(r["attrs"]["rows"] for r in streams), considered)
    miss = [r["total"] for r in streams if r["attrs"]["cache"] == "miss"]
    hit = [r["total"] for r in streams if r["attrs"]["cache"] == "hit"]
    m["motives.cache.miss_s"] = _mean(miss)
    m["motives.cache.hit_s"] = _mean(hit)
    m["motives.cache.hit_ratio"] = _ratio(len(hit), len(hit) + len(miss))

    put("stgroups.moment", by_name["stgroups.moment"])
    m["laurent.lp_pow.s"] = total(by_name["laurent.lp_pow"])
    m["laurent.expectation.s"] = total(by_name["laurent.expectation"])
    m["stgroups.invariants.s"] = total(by_name["stgroups.invariants"])
    sm = by_name["stgroups.sample_many"]
    m["stgroups.sample_many.s"] = total(sm)
    m["stgroups.sample_many.draws_per_s"] = _ratio(sum(r["attrs"]["count"] for r in sm), total(sm))
    ms = by_name["stats.moment_statistics"]
    m["stats.moment_statistics.s"] = total(ms)
    m["stats.moment_statistics.rows_per_s"] = _ratio(sum(r["attrs"].get("rows", 0) for r in ms),
                                                     total(ms))
    first: dict[int, dict] = {}
    for r in sorted(by_name["stats.classify"], key=lambda r: r["start"]):
        first.setdefault(r["proc"], r)
    m["stats.classify.first_s"] = _mean([r["total"] for r in first.values()])
    m["stats.classify.repeat_s"] = _mean([r["total"] for r in by_name["stats.classify"]
                                          if first[r["proc"]] is not r])
    m["stats.classify.calls"] = calls(by_name["stats.classify"])

    child_time = defaultdict(float)
    pooled = defaultdict(list)
    for r in records:
        if r["parent"] is None:
            continue
        if r["parent_proc"] == r["proc"]:
            child_time[(r["proc"], r["parent"])] += r["total"]
        else:
            # the pool runs Dwork primes, which are spans, not rollups
            pooled[(r["parent_proc"], r["parent"])].append((r["start"], r["end"]))
    by_key = {(r["proc"], r["id"]): r for r in records}
    pool_wait = {key: _covered(ivs, by_key[key]["start"], by_key[key]["end"])
                 for key, ivs in pooled.items()}
    m["motives.pool.wait_s"] = sum(wait for key, wait in pool_wait.items()
                                   if by_key[key]["name"] == "motives.cached_lpoly_stream")
    self_time = defaultdict(float)
    for r in records:
        key = (r["proc"], r["id"])
        self_time[r["name"].split(".")[0]] += r["total"] - child_time[key] - pool_wait.get(key, 0.0)
    for layer in ("ntkernel", "padic_hypergeom", "cmforms", "motives", "laurent", "stgroups",
                  "stats", "cli"):
        m[f"self.{layer}.s"] = self_time[layer]
    m["trace.spans"] = calls(records)
    return m
