"""The benchmark's traced run (bench/tracer.py) times library functions by
patching their module bindings by name.  A rename on the CM coefficient path
would crash that run or hide the calls from it; this test runs the tracer
on two CM streams in a subprocess, so no patched function leaks into other
tests, and reads bench/ without changing it.  The per-layer call counts are
pinned, so the split cache must stay below the traced names."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import json, sys
out_dir, bench_dir, src_dir = sys.argv[1:]
sys.path[:0] = [bench_dir, src_dir]
import tracer
from stmotives import motives
from stmotives.cmforms import FORMS, CurveSpec

t = tracer.Tracer(out_dir, "test")
tracer.install(t)
for cons in (motives.DirectSum(FORMS["32.2a"], FORMS["576.4.quartic"]),
             motives.TensorEC(CurveSpec.short(0, 4), CurveSpec.short(-1, 0))):
    motives.cached_lpoly_stream(motives.MotiveSpec(cons, motives.Q), 2**10, None)
t.flush()
print(json.dumps(tracer.aggregate(tracer.load_spans(out_dir))))
"""


COUNTS = {"ntkernel.split_prime.calls": 331, "ntkernel.residue_symbol.calls": 248,
          "cmforms.coeff.hecke.calls": 341, "cmforms.ec_trace.cm.calls": 340}


def test_tracer_sees_the_cm_coefficient_path(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), os.path.join(ROOT, "bench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])
    # pinned: a cache above the traced names would lower the counts and hide
    # split time from ntkernel.split_prime.s
    assert {name: metrics[name] for name in COUNTS} == COUNTS
