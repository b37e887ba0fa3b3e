"""Self-tests of the benchmark's output checks.

    python3 -m pytest -q bench/test_checks.py

A corrupted expected value must make the check fail, and the intact
expected values must pass on the same outputs.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _groups_failures(expected, tmp_path):
    checker = wl.Checker(expected)
    wl.Workload("cli-cold", 1, checker, str(tmp_path))._cli_groups(wl.Round())
    return checker


def test_paper_table_check_catches_corruption(tmp_path):
    expected = wl.load_expected()
    assert _groups_failures(expected, tmp_path).failed == 0
    bad = copy.deepcopy(expected)
    bad["paper"]["INVARIANTS"]["USp(4)"][0] += 1
    checker = _groups_failures(bad, tmp_path)
    assert checker.failed == 1 and "invariants" in checker.failures[0]


def test_digest_check_catches_corruption(tmp_path):
    expected = wl.load_expected()
    key = f"dwork-c2 dwork(-1)/Q B={wl.DWORK_C2_BOUND}"
    assert key in expected["digests"]
    for corrupt in (False, True):
        exp = copy.deepcopy(expected)
        if corrupt:
            exp["digests"][key] = "0" * 64
        checker = wl.Checker(exp)
        wl.Workload("dwork-c2", 0, checker, str(tmp_path)).run_round()
        assert checker.attempted == 1
        assert checker.failed == (1 if corrupt else 0), checker.failures


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def _stream_records(workers):
    """A jobs=2 Dwork stream in process A over [0, 10] and the Dwork primes
    its pool workers ran at the given (proc, start, end)."""
    stream = {"id": 1, "parent": None, "parent_proc": "A", "proc": "A", "name":
              "motives.cached_lpoly_stream", "calls": 1, "start": 0.0, "end": 10.0, "total": 10.0,
              "error": None, "attrs": {"kind": "dwork", "field": "Q", "bound": 64, "cache": "none",
                                       "jobs": 2, "rows": 15}}
    return [stream] + [{"id": 7, "parent": 1, "parent_proc": "A", "proc": proc,
                        "name": "padic_hypergeom.dwork_lpoly", "calls": 1, "start": s, "end": e,
                        "total": e - s, "error": None, "attrs": {"p": 11}}
                       for proc, s, e in workers]


def test_pool_wait_is_not_motives_self_time():
    sys.path.insert(0, wl.SRC)
    m = tracer.aggregate(_stream_records([("B", 1.0, 5.0), ("C", 3.0, 8.0), ("B", 6.0, 7.0)]))
    assert m["motives.pool.wait_s"] == 7.0  # the workers cover [1, 8]
    assert m["self.motives.s"] == 3.0
    assert m["self.padic_hypergeom.s"] == 10.0


def test_serial_fallback_is_flagged():
    assert tracer.serial_fallbacks(_stream_records([("B", 1.0, 5.0)])) == []
    assert len(tracer.serial_fallbacks(_stream_records([]))) == 1
