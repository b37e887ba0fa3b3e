"""One measured section of the traced run, in a fresh interpreter.

    python bench/section.py WORKLOAD SEED ROUNDS OUT_JSON [TRACE_DIR]

Runs ROUNDS rounds of WORKLOAD and writes their timings, counts and check
results to OUT_JSON.  With TRACE_DIR the library calls are traced into
that directory: in this process for the in-process workloads, through
cli_child.py for the CLI commands.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv):
    name, seed, rounds, out_path = argv[0], int(argv[1]), int(argv[2]), argv[3]
    trace_dir = argv[4] if len(argv) > 4 else None
    tmp = os.path.join(os.path.dirname(out_path), f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    checker = wl.Checker(wl.load_expected())
    work = wl.Workload(name, seed, checker, tmp)
    tr = None
    if trace_dir and name == "cli-cold":
        work.cli_launcher = [sys.executable, os.path.join(wl.BENCH_DIR, "cli_child.py")]
        work.env.update(BENCH_TRACE_DIR=trace_dir, BENCH_RUN_ID=f"{name}-{seed}")
    elif trace_dir:
        tr = tracer.Tracer(trace_dir, f"{name}-{seed}")
        tracer.install(tr)
    results = [work.run_round().as_dict() for _ in range(rounds)]
    if tr is not None:
        tr.flush()
    with open(out_path, "w") as fh:
        json.dump({"workload": name, "traced": bool(trace_dir), "rounds": results,
                   "attempted": checker.attempted, "failed": checker.failed,
                   "failures": checker.failures, "pool_efficiency": work.pool_efficiency}, fh)
    shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
