"""The stmotives benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload cli-cold --seed 0 --seconds 35 --trace 0

Workloads (see bench/README.md): dwork-c2, cli-cold, lib-batch.  With
--trace 0 the workload runs whole rounds while the next one is predicted
to end within --seconds (at least one), every output is checked, and the
end-to-end metrics are printed.  With --trace 1 the run is the traced
run: one plain and one traced section of every workload, each in a fresh
interpreter, reporting the per-layer metrics and the tracing overhead.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(wl.ROOT, ".bench_out")
# set-up time: SETUP_GROUPS groups of SETUP_GROUP imports, spread over the run
SETUP_GROUP = 5
SETUP_GROUPS = 3
# rounds of each workload in each section of the traced run
TRACE_ROUNDS = {"dwork-c2": 2, "cli-cold": 1, "lib-batch": 1}
END_TO_END = (("wall_s", "s"), ("primes_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def git_sha() -> str | None:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(wl.ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """Content hash of the library sources (the checkout may not be a git tree)."""
    h = hashlib.sha256()
    pkg = os.path.join(wl.SRC, "stmotives")
    for dirpath, _, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith((".py", ".txt")):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        np_version = version("numpy")
    except PackageNotFoundError:
        np_version = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "numpy": np_version,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "src_digest": src_digest(), "load1_start": os.getloadavg()[0]}


def import_times(n: int, env: dict, cwd: str) -> list[float]:
    """Wall times of n fresh interpreters' `import stmotives.cli`."""
    argv = [sys.executable, "-c", "import stmotives.cli"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        code, _, err = wl.run_cmd(argv, cwd, env)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import stmotives.cli failed: {err[-500:]}")
    return times


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def untraced(args, checker: wl.Checker, tmp: str) -> tuple[dict, dict]:
    env = wl.child_env()
    import_times(1, env, tmp)  # warm-up, so the .pyc files exist
    # set-up is timed in groups spread over the run, so that one burst of
    # load on the host does not decide it
    setup = import_times(SETUP_GROUP, env, tmp)
    last_group = time.perf_counter()
    work = wl.Workload(args.workload, args.seed, checker, tmp)
    # whole rounds, while the next one is predicted to end within --seconds
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(work.run_round())
        if len(rounds) == 1:
            # taken after one round, so it does not grow with the round count
            peak_rss = peak_rss_mb()
        if (len(setup) < SETUP_GROUP * SETUP_GROUPS
                and time.perf_counter() - last_group >= args.seconds / SETUP_GROUPS):
            setup += import_times(SETUP_GROUP, env, tmp)
            last_group = time.perf_counter()
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    setup += import_times(SETUP_GROUP * SETUP_GROUPS - len(setup), env, tmp)
    values = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "primes_per_s": statistics.median(r.primes / r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {"rounds": [r.as_dict() for r in rounds], "setup": setup}


def traced(args, checker: wl.Checker, tmp: str) -> tuple[dict, dict]:
    import tracer

    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    sections = {}
    for name in wl.WORKLOADS:
        for mode in ("plain", "traced"):
            out = os.path.join(tmp, f"{name}-{mode}.json")
            argv = [sys.executable, os.path.join(wl.BENCH_DIR, "section.py"), name,
                    str(args.seed), str(TRACE_ROUNDS[name]), out]
            if mode == "traced":
                argv.append(trace_dir)
            code, _, err = wl.run_cmd(argv, wl.ROOT, wl.child_env())
            if code != 0:
                raise RuntimeError(f"{name} {mode} section: exit {code}: {err[-800:]}")
            with open(out) as fh:
                sec = json.load(fh)
            checker.attempted += sec["attempted"]
            checker.failed += sec["failed"]
            checker.failures += sec["failures"]
            sections[name, mode] = sec
    spans = tracer.load_spans(trace_dir)
    # each is a stream operation of a section that the section counted as attempted
    for msg in tracer.serial_fallbacks(spans):
        checker.failed += 1
        checker.failures.append(msg)
        sys.stderr.write(f"CHECK FAILED {msg}\n")
    shutil.copytree(trace_dir, os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}"),
                    dirs_exist_ok=True)
    sys.path.insert(0, wl.SRC)
    values = tracer.aggregate(spans)
    values["motives.pool.cpu_efficiency"] = statistics.fmean(
        sections["dwork-c2", "plain"]["pool_efficiency"])
    cli_round = sections["cli-cold", "plain"]["rounds"][0]["ops"]
    for op, seconds in cli_round.items():
        values[f"cli.{op}.s"] = seconds

    def walls(mode):
        return sum(r["wall"] for name in wl.WORKLOADS for r in sections[name, mode]["rounds"])

    values["trace.overhead_frac"] = walls("traced") / walls("plain") - 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    return metrics, {"sections": [sections[k] for k in sorted(sections)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "stmotives", "__init__.py")):
        sys.stderr.write(f"error: no stmotives package under {wl.SRC}; run from a checkout\n")
        return 2
    # hermetic: a user's stream cache would turn every stream into a hit
    os.environ.pop("STMOTIVES_CACHE_DIR", None)
    env = environment(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    tmp = os.path.join(OUT_DIR, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(tmp)
    checker = wl.Checker(wl.load_expected())
    try:
        metrics, detail = (traced if args.trace else untraced)(args, checker, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "attempted": checker.attempted,
                   "failed": checker.failed, "failures": checker.failures, "detail": detail},
                  fh, indent=1)
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"#   {'fail_frac':40s} {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed}/{checker.attempted})")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
