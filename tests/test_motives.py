"""Construction formulas, streams, caching, and cross-construction identities."""

import multiprocessing
import os
import re
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from stmotives import motives as mv
from stmotives.cmforms import CurveSpec, FORMS, NewformHandle, coeff, ec_trace
from stmotives.ntkernel import Q, QW, primes_up_to
from stmotives.records import ConsistencyError, LPoly, SkippedPrime


def test_direct_sum_formula_at_split_prime():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["32.2a"], FORMS["9.4a"]), Q)
    p = 13
    b = coeff(FORMS["32.2a"], p)
    d = coeff(FORMS["9.4a"], p)
    lp = spec.construction.lpoly(p)
    assert lp.c1 == -(p * b + d)
    assert lp.c2 == b * d + 2 * p * p


def test_tensor_formula_and_symcube():
    e1, e2 = CurveSpec.short(1, 0), CurveSpec.short(0, 1)
    p = 13
    t1, t2 = ec_trace(e1, p), ec_trace(e2, p)
    lp = mv.TensorEC(e1, e2).lpoly(p)
    u = t2 * t2 - 2 * p
    assert lp.c1 == -t1 * u
    assert lp.c2 == p * t1 * t1 + u * u - 2 * p * p
    sc = mv.SymCube(e2).lpoly(p)
    t = ec_trace(e2, p)
    assert sc.c1 == -t * (t * t - 2 * p)


def test_tensor_mf_inert_case_gives_j_signature():
    # at p inert in the CM field: b_p = d_p = 0, chi(p) = -1 -> (0, 2p^2)
    spec = mv.MotiveSpec(mv.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]), Q)
    p = 5
    lp = spec.construction.lpoly(p)
    assert (lp.c1, lp.c2) == (0, 2 * p * p)


def test_degree_one_filter_and_skips():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    assert 5 not in mv.stream_primes(spec, 50)  # inert in Q(w)
    with pytest.raises(SkippedPrime):
        spec.construction.lpoly(3)  # divides the level
    ps = [p for p, *_ in mv.cached_lpoly_stream(spec, 50, None)]
    assert ps == [7, 13, 19, 31, 37, 43]


def test_stream_excludes_two_even_over_q():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    ps = [p for p, *_ in mv.cached_lpoly_stream(spec, 20, None)]
    assert ps == [5, 7, 11, 13, 17, 19]


def test_cross_construction_identity_sum_vs_tensor():
    """The direct sum 27.2a + 9.4a and the tensor 27.2a x 27.3.5a give the
    same L-polynomial at every good prime."""
    s1 = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    s2 = mv.MotiveSpec(mv.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]), Q)
    r1 = mv.cached_lpoly_stream(s1, 2**12, None)
    r2 = mv.cached_lpoly_stream(s2, 2**12, None)
    assert r1 == r2
    assert len(r1) == len([p for p in range(3, 4097) if all(p % d for d in range(2, p)) and p != 3])


def test_quadratic_twist_in_sym_square_slot_is_invisible():
    # t2 enters squared, so twisting E2 quadratically changes nothing
    e = CurveSpec.short(0, 1)
    e_tw = CurveSpec.short(0, 8)  # quadratic twist by 2
    sc = mv.MotiveSpec(mv.SymCube(e), QW)
    te = mv.MotiveSpec(mv.TensorEC(e, e_tw), QW)
    assert mv.cached_lpoly_stream(sc, 800, None) == mv.cached_lpoly_stream(te, 800, None)


def test_normalized_ranges_random_sweep():
    specs = [
        mv.MotiveSpec(mv.DirectSum(FORMS["32.2a"], FORMS["9.4a"]), Q),
        mv.MotiveSpec(mv.TensorEC(CurveSpec.short(1, 1), CurveSpec.short(0, 1)), QW),
        mv.MotiveSpec(mv.SymCube(CurveSpec.short(1, 1)), Q),
        mv.MotiveSpec(mv.TensorMF(FORMS["11.2a"], FORMS["27.3.5a"]), Q),
    ]
    for spec in specs:
        rows = mv.cached_lpoly_stream(spec, 600, None)
        assert rows
        for p, c1, c2 in rows:
            assert -4.0 <= c1 / p**1.5 <= 4.0
            assert -2.0 <= c2 / p**2 <= 6.0


def test_lpoly_validates_weil_bounds():
    with pytest.raises(ConsistencyError):
        LPoly(7, 100, 0)
    # the USp(4) region, whose edges at c1 = 0 are c2 = +-2p^2: each row rejected
    # below breaks one of its inequalities and keeps the other two, the c1 window
    # and -2p^2 <= c2 <= 6p^2
    assert LPoly(7, 0, 98).c2 == 98 and LPoly(7, 0, -98).c2 == -98
    for c1, c2 in ((0, 99),  # complex roots: c1^2 - 4p c2 + 8p^3 < 0
                   (0, -99),  # a root past -2: 2p^2 + c2 < 0
                   (1, -98)):  # a root past -2: (2p^2 + c2)^2 < 4p c1^2
        with pytest.raises(ConsistencyError, match="outside the USp\\(4\\) region"):
            LPoly(7, c1, c2)
    # c2 None is a c1-only row: only the c1 bound applies
    assert LPoly(7, 74).c2 is None and LPoly(7, -74) == LPoly(7, -74, None)
    with pytest.raises(ConsistencyError):
        LPoly(7, 75)  # 75^2 > 16 * 7^3
    with pytest.raises(ConsistencyError):
        LPoly(7, -75)


def test_dwork_rejects_the_fibres_degenerate_at_every_prime():
    # z is stored as a Fraction before the check: "1" and 1.0 used to build
    for z in (0, 1, Fraction(0), Fraction(2, 2), "0", "1", "2/2", 1.0):
        with pytest.raises(ValueError, match=f"z={Fraction(z)} is a degenerate fibre"):
            mv.Dwork(z)
    assert mv.Dwork(Fraction(-1)).z == -1
    # equal values are one fibre, with one describe() and one cache key; an int
    # or a Fraction z keeps the describe() it had before z was converted
    half = mv.Dwork(0.5)
    assert half == mv.Dwork(Fraction(1, 2)) and type(half.z) is Fraction
    assert half.describe() == mv.Dwork(Fraction(1, 2)).describe() == "dwork(1/2)"
    assert mv.MotiveSpec(half).spec_hash() == mv.MotiveSpec(mv.Dwork(Fraction(1, 2))).spec_hash()
    assert mv.Dwork(-1).describe() == mv.Dwork(Fraction(-1)).describe() == "dwork(-1)"


def test_dwork_refuses_what_is_not_a_finite_rational():
    # inf, "1/0", None and 1j used to leak OverflowError, ZeroDivisionError and TypeError
    for z in (float("inf"), float("-inf"), float("nan"), "1/0", "abc", "", None, 1j):
        with pytest.raises(ValueError, match=re.escape(f"z={z!r} is not a rational number")):
            mv.Dwork(z)


def test_weight_validation():
    with pytest.raises(ValueError):
        mv.DirectSum(FORMS["27.2a"], FORMS["27.3.5a"])  # (2,3) not (2,4)
    with pytest.raises(ValueError):
        mv.TensorMF(FORMS["27.2a"], FORMS["9.4a"])


def test_cache_roundtrip(tmp_path):
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    rows1 = mv.cached_lpoly_stream(spec, 300, str(tmp_path))
    path = mv.cache_path(str(tmp_path), spec, 300, a1_only=False)
    import os

    assert os.path.exists(path)
    rows2 = mv.cached_lpoly_stream(spec, 300, str(tmp_path))
    assert rows1 == rows2
    # stale header invalidates
    with open(path, "w") as fh:
        fh.write("# spec=other bound=300\n1\t2\t3\n")
    rows3 = mv.cached_lpoly_stream(spec, 300, str(tmp_path))
    assert rows3 == rows1


def test_edited_file_form_is_not_served_stale(tmp_path):
    # the cache key hashes a file form's contents, not only its label
    table = tmp_path / "5.4a.txt"
    shutil.copy(FORMS["5.4a"].path, table)
    form = NewformHandle("5.4a", 4, 5, "file", path=str(table))
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], form), Q)
    before = mv.cached_lpoly_stream(spec, 2**8, str(tmp_path))
    lines = table.read_text().splitlines()
    i = lines.index("7 6")
    lines[i] = "7 -6"  # still inside |b_7| <= 2 * 7^(3/2)
    table.write_text("\n".join(lines) + "\n")
    after = mv.cached_lpoly_stream(spec, 2**8, str(tmp_path))
    assert after == mv.cached_lpoly_stream(spec, 2**8, None)
    assert after != before and [r for r in after if r[0] != 7] == [r for r in before if r[0] != 7]


def test_direct_sum_skips_past_a_file_table_before_the_weight_2_form(tmp_path, monkeypatch):
    """A weight-4 file table that ends near p = 100 skips every later prime
    before the weight-2 form's trace (a point count up to p = 229) runs there."""
    table = tmp_path / "5.4a-short.txt"
    with open(FORMS["5.4a"].path) as fh:
        lines = fh.read().splitlines()
    table.write_text("\n".join(ln for ln in lines if ln.startswith("#") or int(ln.split()[0]) <= 101))
    monkeypatch.setitem(FORMS, "5.4a-short", NewformHandle("5.4a-short", 4, 5, "file",
                                                           path=str(table)))
    calls = []

    def counting_coeff(form, p):
        calls.append((form.label, p))
        return coeff(form, p)

    monkeypatch.setattr(mv, "coeff", counting_coeff)
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["11.2a"], FORMS["5.4a-short"]), Q)
    rows = mv.cached_lpoly_stream(spec, 2**9, None)
    assert [r[0] for r in rows] == [p for p in primes_up_to(101) if p not in (2, 5, 11)]
    assert [p for label, p in calls if label == "11.2a" and p > 101] == []
    assert sum(label == "5.4a-short" for label, _ in calls) == len(primes_up_to(2**9)) - 1


def _c2_range(p, c1):
    """The least and greatest c2 with (c1, c2) in LPoly's USp(4) region:
    2|c1| sqrt(p) - 2p^2 <= c2 <= (c1^2 + 8p^3)/4p."""
    r = isqrt(4 * p * c1 * c1)
    return r + (r * r < 4 * p * c1 * c1) - 2 * p * p, (c1 * c1 + 8 * p**3) // (4 * p)


def _weil_rows(full):
    """Rows (p, c1[, c2]) at ascending odd primes up to 2^12 inside LPoly's windows."""
    def row(p):
        c1 = hst.integers(-isqrt(16 * p**3), isqrt(16 * p**3))
        if not full:
            return hst.tuples(hst.just(p), c1)
        # near |c1| = 4p^(3/2) the c2 range can hold no integer
        ranges = c1.map(lambda c: (c, *_c2_range(p, c))).filter(lambda t: t[1] <= t[2])
        return ranges.flatmap(lambda t: hst.tuples(hst.just(p), hst.just(t[0]),
                                                   hst.integers(t[1], t[2])))
    primes = hst.lists(hst.sampled_from(primes_up_to(2**12)[1:]), min_size=1, max_size=40,
                       unique=True)
    return primes.flatmap(lambda ps: hst.tuples(*map(row, sorted(ps)))).map(list)


@given(hst.booleans(), hst.data())
@settings(max_examples=60, deadline=None)
def test_stream_cache_round_trip(full, data):
    rows = data.draw(_weil_rows(full))
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    with tempfile.TemporaryDirectory() as cache_dir:
        path = mv.cache_path(cache_dir, spec, 2**12, a1_only=not full)
        mv.write_stream_cache(path, spec, 2**12, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mv.read_stream_cache(path, spec, 2**12) == rows
        # move one row past its Weil bound: a warned miss
        i = data.draw(hst.integers(0, len(rows) - 1))
        p, c1 = rows[i][:2]
        if full and data.draw(hst.booleans()):
            bad = (p, c1, 6 * p * p + 1)  # c2 past 6 p^2
        else:
            bad = (p, isqrt(16 * p**3) + 1) + rows[i][2:]  # c1 past 4 p^(3/2)
        mv.write_stream_cache(path, spec, 2**12, rows[:i] + [bad] + rows[i + 1:])
        with pytest.warns(RuntimeWarning, match="corrupt stream cache"):
            assert mv.read_stream_cache(path, spec, 2**12) is None


@pytest.mark.parametrize("a1_only,bad_row", [
    (False, "7\tjunk\t1"),  # not integers
    (False, "7\t1"),  # a c1 row in a full file
    (False, "7\t0\t1000"),  # c2 past 6 p^2
    (False, "7\t0\t99"),  # c2 in [-2p^2, 6p^2] but past 2p^2 at c1 = 0: no USp(4) row
    (False, "7\t75\t0"),  # c1 past 4 p^(3/2)
    (True, "7\t1\t2"),  # a full row in a c1 file
    (True, "7\t-75"),  # c1 past 4 p^(3/2)
    (False, "61\t0\t0"),  # the last row's prime again
    (False, "67\t0\t0"),  # a prime past the bound
    (True, "63\t0"),  # a composite p, ascending and inside the bound
], ids=["junk", "c1-row-in-full", "c2-window", "c2-outside-region", "c1-weil", "full-row-in-c1",
        "c1-weil-c1", "repeated-prime", "prime-past-bound", "composite-p"])
def test_corrupt_cache_is_a_miss(tmp_path, a1_only, bad_row):
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    fresh = mv.cached_lpoly_stream(spec, 64, str(tmp_path), a1_only=a1_only)
    path = mv.cache_path(str(tmp_path), spec, 64, a1_only)
    with open(path) as fh:
        good = fh.read()
    # under the header's digest of the new rows, so only the row checks can catch it;
    # a p = 7 row replaces the stream's, so the checks ahead of its own pass
    bad = bad_row.split("\t")
    rows = [bad if r[0] == 7 else r for r in fresh] if bad[0] == "7" else fresh + [bad]
    mv.write_stream_cache(path, spec, 64, rows)
    with pytest.warns(RuntimeWarning, match="corrupt stream cache .*" + os.path.basename(path)):
        assert mv.cached_lpoly_stream(spec, 64, str(tmp_path), a1_only=a1_only) == fresh
    with open(path) as fh:
        assert fh.read() == good  # rewritten


@pytest.mark.parametrize("edit", ["drop-middle-row", "c1-off-by-one"])
def test_cache_with_an_edited_row_set_is_a_miss(tmp_path, edit):
    # both edits pass every row check: skipped primes leave gaps like a dropped
    # row, and c1 + 1 stays inside its Weil window; only the digest sees them
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    fresh = mv.cached_lpoly_stream(spec, 64, str(tmp_path))
    path = mv.cache_path(str(tmp_path), spec, 64, False)
    with open(path) as fh:
        good = fh.read()
    head, *lines = good.splitlines(keepends=True)
    i = len(lines) // 2
    if edit == "drop-middle-row":
        del lines[i]
    else:
        p, c1, c2 = map(int, lines[i].split("\t"))
        assert (c1 + 1) ** 2 <= 16 * p**3
        lines[i] = f"{p}\t{c1 + 1}\t{c2}\n"
    with open(path, "w") as fh:
        fh.write(head + "".join(lines))
    with pytest.warns(RuntimeWarning, match="corrupt stream cache .*" + os.path.basename(path)):
        assert mv.cached_lpoly_stream(spec, 64, str(tmp_path)) == fresh
    with open(path) as fh:
        assert fh.read() == good  # rewritten


def test_unreadable_cache_is_a_warned_miss(tmp_path):
    # a directory at the cache path can be neither read nor replaced
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    fresh = mv.cached_lpoly_stream(spec, 64, None, a1_only=True)
    path = mv.cache_path(str(tmp_path), spec, 64, True)
    os.mkdir(path)
    with pytest.warns(RuntimeWarning) as record:
        assert mv.cached_lpoly_stream(spec, 64, str(tmp_path), a1_only=True) == fresh
    messages = [str(w.message) for w in record]
    assert any(m.startswith(f"unreadable stream cache {path}") for m in messages)
    assert any(m.startswith(f"cannot write stream cache {path}") for m in messages)
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no .tmp file left


def test_cache_is_written_past_a_directory_at_the_old_temp_name(tmp_path):
    # every writer used to go through <path>.tmp, so a directory left there
    # blocked the cache for good; each writer now has a temporary file of its own
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    path = mv.cache_path(str(tmp_path), spec, 64, True)
    os.mkdir(path + ".tmp")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = mv.cached_lpoly_stream(spec, 64, str(tmp_path), a1_only=True)
        assert mv.read_stream_cache(path, spec, 64) == rows
    name = os.path.basename(path)
    assert sorted(os.listdir(tmp_path)) == [name, name + ".tmp"]  # no temporary file left


def test_unwritable_cache_dir_warns_and_returns_rows(tmp_path):
    # --cache-dir naming a regular file
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    fresh = mv.cached_lpoly_stream(spec, 64, None, a1_only=True)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    path = mv.cache_path(str(not_a_dir), spec, 64, True)
    with pytest.warns(RuntimeWarning, match=f"cannot write stream cache {path}"):
        assert mv.cached_lpoly_stream(spec, 64, str(not_a_dir), a1_only=True) == fresh
    assert not_a_dir.read_text() == ""


def test_parallel_stream_matches_serial():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    serial = mv.cached_lpoly_stream(spec, 2000, None, jobs=1)
    parallel = mv.cached_lpoly_stream(spec, 2000, None, jobs=2)
    assert serial == parallel


def test_parallel_fallback_warns_and_matches_serial(monkeypatch):
    """A worker process that cannot be started (OSError) is a RuntimeWarning and a
    serial stream, and the worker started before it does not outlive the call."""

    class SecondFails(multiprocessing.Process):
        started = 0

        def start(self):
            if SecondFails.started:
                raise OSError("no processes here")
            SecondFails.started += 1
            super().start()

    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    serial = mv.cached_lpoly_stream(spec, 2000, None, jobs=1)
    monkeypatch.setattr(mv.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Process", SecondFails)
    with pytest.warns(RuntimeWarning, match="no processes here"):
        fallback = mv.cached_lpoly_stream(spec, 2000, None, jobs=2)
    assert fallback == serial and SecondFails.started == 1
    assert multiprocessing.active_children() == []


def _record_shares(monkeypatch) -> list:
    """The primes of each worker process a stream starts, in start order."""
    shares = []

    class Recorded(multiprocessing.Process):
        def __init__(self, target, args):
            shares.append(list(args[-1]))
            super().__init__(target=target, args=args)

    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    return shares


def test_workers_capped_at_cpus_and_primes(monkeypatch):
    from stmotives import cli

    shares = _record_shares(monkeypatch)
    workers = []

    def stream(bound, jobs):
        shares.clear()
        rows = mv.cached_lpoly_stream(spec, bound, None, jobs=jobs)
        workers.append(len(shares))
        return rows

    monkeypatch.setattr(mv.os, "cpu_count", lambda: 3)
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    serial = stream(2000, 1)
    assert stream(2000, 10**6) == serial
    assert stream(2000, 2) == serial
    assert stream(8, 10**6) == [(7, *serial[0][1:])]
    monkeypatch.setattr(mv.os, "cpu_count", lambda: None)
    assert stream(2000, 10**6) == serial
    # jobs = 1 starts none; then CPUs, jobs, primes (7 alone, still in a worker), unknown CPUs
    assert workers == [0, 3, 2, 1, 1]
    assert multiprocessing.active_children() == []
    # the CLI's --jobs has no upper limit of its own
    monkeypatch.setattr(mv.os, "cpu_count", lambda: 64)
    shares.clear()
    argv = ["motive", "symcube", "--e1", "0,1", "--bound-log2", "4"]
    assert cli.main(argv + ["--jobs", "1000000"]) == 0
    assert shares == [[13], [11], [7], [5], [3]]  # 5 workers: the primes 3, 5, 7, 11, 13 below 2^4
    assert multiprocessing.active_children() == []


def test_workers_take_every_nth_prime_largest_first(monkeypatch, tmp_path):
    """Worker i of n gets every n-th prime from the largest down, so the shares cost
    about the same and each ends on its cheapest primes; the rows come back
    ascending, equal to the serial rows, and a jobs = 2 cache miss writes a file the
    next call reads as a hit."""
    shares = _record_shares(monkeypatch)
    monkeypatch.setattr(mv.os, "cpu_count", lambda: 2)
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    down = sorted(mv.stream_primes(spec, 2000), reverse=True)
    serial = mv.cached_lpoly_stream(spec, 2000, None, jobs=1)
    pooled = mv.cached_lpoly_stream(spec, 2000, None, jobs=2)
    assert shares == [down[0::2], down[1::2]]
    assert pooled == serial and [r[0] for r in pooled] == sorted({r[0] for r in pooled})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # descending rows: a corrupt cache
        assert mv.cached_lpoly_stream(spec, 2000, str(tmp_path), jobs=2) == serial
        assert mv.cached_lpoly_stream(spec, 2000, str(tmp_path), jobs=2) == serial
    assert len(shares) == 4  # the miss started two workers, the hit none
    monkeypatch.setattr(mv.os, "cpu_count", lambda: 3)
    shares.clear()
    assert mv.cached_lpoly_stream(spec, 2000, None, jobs=3) == serial
    assert shares == [down[0::3], down[1::3], down[2::3]]
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class _FailsAt:
    """A construction whose row at p is (p, 0, 0), except at `at`, where it raises
    ConsistencyError or SkippedPrime (`how`), or ends its process without a word."""

    how: str
    at: int

    def lpoly(self, p: int) -> LPoly:
        if p == self.at:
            if self.how == "exit":
                os._exit(3)
            raise {"inconsistent": ConsistencyError, "skip": SkippedPrime}[self.how](f"at p={p}")
        return LPoly(p, 0, 0)


def test_worker_failures_reach_the_caller(monkeypatch):
    """A ConsistencyError at one prime in a worker reaches the caller as itself, a
    worker that exits without a reply is a RuntimeError, not a hang (an alarm
    bounds the wait), and a SkippedPrime in a worker is a skipped row; no worker
    outlives a stream."""

    def hung(signum, frame):
        raise TimeoutError("the stream still waits on its workers after 20 s")

    monkeypatch.setattr(mv.os, "cpu_count", lambda: 2)
    primes = mv.stream_primes(mv.MotiveSpec(_FailsAt("skip", 101), Q), 400)
    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a serial fallback would exit here
            spec = mv.MotiveSpec(_FailsAt("skip", 101), Q)
            assert mv.cached_lpoly_stream(spec, 400, None, jobs=2) == [
                (p, 0, 0) for p in primes if p != 101]
            assert multiprocessing.active_children() == []
            # the first prime of each of the two shares, a middle one and the last one (the
            # second share's write end is the one the parent's loop variable still holds)
            for at in (primes[-1], primes[-2], 101, 3):
                for how, error, match in (("inconsistent", ConsistencyError, f"^at p={at}$"),
                                          ("exit", RuntimeError, "without a reply")):
                    spec = mv.MotiveSpec(_FailsAt(how, at), Q)
                    with pytest.raises(error, match=match):
                        mv.cached_lpoly_stream(spec, 400, None, jobs=2)
                    assert multiprocessing.active_children() == []
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_bad_primes_are_skipped_primes():
    """cmforms.BadPrimeError is a SkippedPrime: bad reduction and level primes
    leave the stream without a wrapper in the constructions."""
    e = CurveSpec.short(0, 1)  # bad at 2 and 3
    for lpoly in (mv.TensorEC(e, CurveSpec.short(1, 0)).lpoly, mv.TensorEC(CurveSpec.short(1, 0), e).lpoly,
                  mv.SymCube(e).lpoly, mv.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]).lpoly):
        with pytest.raises(SkippedPrime, match="3"):
            lpoly(3)
    spec = mv.MotiveSpec(mv.SymCube(e), Q)
    assert [r[0] for r in mv.cached_lpoly_stream(spec, 20, None)] == [5, 7, 11, 13, 17, 19]


def test_dwork_a1_parallel_stream_matches_serial():
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    serial = mv.cached_lpoly_stream(spec, 2**9, None, a1_only=True, jobs=1)
    assert serial == [(p, spec.construction.c1_only(p)) for p in mv.stream_primes(spec, 2**9)
                      if p != 5]
    assert mv.cached_lpoly_stream(spec, 2**9, None, a1_only=True, jobs=2) == serial


def test_dwork_spec_streams(dwork_rows_1024):
    rows = dwork_rows_1024
    assert rows[0][0] == 3
    assert all(len(r) == 3 for r in rows)
    ps = [r[0] for r in rows]
    assert 5 not in ps and 2 not in ps
    # a1-only stream agrees with the full one on c1
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    small = dict(mv.cached_lpoly_stream(spec, 128, None, a1_only=True))
    full = {r[0]: r[1] for r in rows if r[0] <= 128}
    assert small == full
