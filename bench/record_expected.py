"""Record the expected outputs the benchmark checks against.

    python3 bench/record_expected.py

Runs every input the seeds can draw (each z, each construction on each
field, each sampled group) through the benchmark's own operations and
stores a digest of each output in bench/expected.json, together with the
paper's printed tables taken from tests/table_data.py.  The paper
comparisons are checked while recording.  Run it only on a commit whose
outputs are known to be right: the recorded digests define "correct".
"""

import importlib.util
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

PAPER_KEYS = ("A1_MOMENTS", "A2_MOMENTS", "INVARIANTS", "ROW_MFSUM_JC1_16", "ROW_ECPROD_C3_16",
              "ROW_USP4_13_A1")


def paper_tables() -> dict:
    spec = importlib.util.spec_from_file_location(
        "table_data", os.path.join(wl.ROOT, "tests", "table_data.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return json.loads(json.dumps({k: getattr(mod, k) for k in PAPER_KEYS}))


def all_draws() -> list[dict]:
    """The paper draw, then every choice of every kind on every CM field."""
    draws = [dict(wl.PAPER_DRAW)]
    n = len(wl.SUM_PAIRS)
    assert all(len(c) == n for c in wl.CM_CHOICES.values())
    fields = wl.CM_FIELDS
    for i in range(n):
        for j in range(len(fields)):
            draw = {kind: (wl.CM_CHOICES[kind][i], fields[(k + j) % len(fields)])
                    for k, kind in enumerate(wl.CM_KINDS)}
            draw["count-file"] = (wl.COUNT_FILE, wl.COUNT_FILE_FIELD)
            draws.append(draw)
    return draws


def record(name: str, checker: wl.Checker, tmp: str) -> None:
    work = wl.Workload(name, 0, checker, tmp)
    if name == "dwork-c2":
        for z in wl.dwork_order(0):
            work.run_round(z)
    elif name == "cli-cold":
        for i, draw in enumerate(all_draws()):
            work.run_round(draw, fixed=i == 0)
    else:
        from stmotives import stgroups

        for draw in all_draws():
            work.run_round(draw)
        for i, g in enumerate(stgroups.catalog()):
            work.sample(wl.Round(), g.name, i + 1)


def main():
    expected = {"paper": paper_tables(), "digests": {}}
    checker = wl.Checker(expected, record=True)
    tmp = os.path.join(wl.ROOT, ".bench_out", f"record-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for name in wl.WORKLOADS:
            record(name, checker, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if checker.failed:
        sys.exit(f"{checker.failed} checks failed; nothing recorded")
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump({"paper": expected["paper"], "digests": dict(sorted(expected["digests"].items()))},
                  fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(expected['digests'])} digests, {checker.attempted} operations")


if __name__ == "__main__":
    main()
