"""Statistics, classification behavior, table emission, CLI surface."""

import io
import math
import os
import string
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from stmotives import cli, cmforms, motives, stats, stgroups
from stmotives.stats import MomentStats, classify, emit_table, moment_statistics, parse_stats_tsv, stats_row

from table_data import A1_MOMENTS, A2_MOMENTS


def test_constant_stream_statistics():
    # a1 = 0, a2 = 2 p^2 / p^2 = 2 identically
    rows = [(p, 0, 2 * p * p) for p in (7, 13, 19, 31)]
    s = moment_statistics(rows, 32)
    for n in (2, 4, 6):
        assert s.a1[n] == 0.0
    for n in range(1, 10):
        assert s.a2[n] == pytest.approx(2.0**n, rel=1e-12)


def test_statistics_deterministic_and_order_independent():
    rows = [(p, p // 2, p) for p in (5, 7, 11, 13, 17, 19, 23)]
    s1 = moment_statistics(rows, 24)
    s2 = moment_statistics(list(reversed(rows)), 24)
    assert s1.a1 == s2.a1 and s1.a2 == s2.a2


def test_empty_stream_errors():
    with pytest.raises(ValueError):
        moment_statistics([], 16)


def _exact_stats(name: str) -> MomentStats:
    a1 = {n: float(m) for n, m in zip(stats.A1_NS, A1_MOMENTS[name][:6])}
    a2 = {n: float(m) for n, m in zip(stats.A2_NS, A2_MOMENTS[name])}
    return MomentStats(2**40, 10**6, a1, a2)


# groups whose moment vectors coincide with an earlier catalog entry on
# every moment the metric sees (the printed tables agree through M12[a1]
# and M9[a2]); the tie resolves to the earliest catalog entry
MOMENT_TIED = {"C6": "C4", "F": "C4", "J(C6)": "J(C4)", "F_{ab}": "J(C4)"}


@pytest.mark.parametrize("name", [g.name for g in stgroups.catalog()])
def test_exact_moments_classify_fixed_point(name):
    result = classify(_exact_stats(name))
    dists = dict(result.ranked)
    assert dists[name] == 0.0
    if name in MOMENT_TIED:
        # structurally indistinguishable pair: the true group ties at 0
        assert result.top == MOMENT_TIED[name]
        assert name in result.clusters[0]
    else:
        assert result.top == name


def test_classify_distance_zero_only_for_ties():
    result = classify(_exact_stats("C6"))
    zeros = [n for n, d in result.ranked if d == 0.0]
    assert set(zeros) == {"C4", "C6", "F"}


def test_classify_appending_matching_moments_cannot_hurt():
    base = _exact_stats("D")
    partial = MomentStats(2**40, 10**6, dict(list(base.a1.items())[:3]), None)
    full = classify(base)
    part = classify(partial)
    assert full.top == "D" and part.top == "D"
    assert dict(full.ranked)["D"] == 0.0 == dict(part.ranked)["D"]


def test_classify_a1_only_stats():
    a1 = {n: float(m) for n, m in zip(stats.A1_NS, A1_MOMENTS["USp(4)"][:6])}
    s = MomentStats(2**13, 1000, a1, None)
    assert classify(s).top == "USp(4)"


def test_emit_table_formats_and_rounding():
    s = MomentStats(2**10, 100, {2: 1.0375, 4: 2.95649, 6: 11.7829, 8: 56.205, 10: 304.85, 12: 1799.5},
                    {1: 0.9985, 2: 2.0015, 3: 3.8255, 4: 9.2205, 5: 22.5065, 6: 61.015, 7: 170.15, 8: 1.0, 9: 1.0})
    row = stats_row(s)
    # round-half-even at the printed precision
    assert row[0] == "10"
    assert row[1] == "1.038" and row[2] == "2.956"
    assert row[4] == "56.20"  # 56.205 -> even
    assert row[6] == "1800"   # 1799.5 -> even
    assert row[7:] == ["0.998", "2.002", "3.826", "9.220", "22.506", "61.02", "170.2"]  # a2 M1..M7
    assert stats_row(MomentStats(2**10, 100, s.a1, None))[7:] == [""] * 7
    text = emit_table([row])
    assert text.startswith("#n\t")
    aligned = emit_table([row], fmt="aligned")
    assert "1.038" in aligned
    with pytest.raises(ValueError):
        emit_table([row], fmt="fancy")


def test_stats_tsv_roundtrip():
    s = MomentStats(2**12, 50, {2: 1.5, 4: 3.25, 6: 10.0, 8: 20.0, 10: 30.0, 12: 40.0},
                    {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0, 6: 6.0, 7: 7.0, 8: 8.0, 9: 9.0})
    text = emit_table([stats_row(s)])
    back = parse_stats_tsv(text)
    assert back.a1[2] == 1.5 and back.a1[12] == 40.0
    assert back.a2[7] == 7.0


@pytest.mark.parametrize("bound", [0, 1, 48, 1000, 2**12, 2**13 + 1, 2**70, 3 * 2**70])
def test_stats_tsv_bound_roundtrip(bound):
    s = MomentStats(bound, 5, {2: 1.0}, None)
    assert parse_stats_tsv(emit_table([stats_row(s)])).bound == bound


def test_stats_tsv_reads_old_bound_cells():
    # power-of-two bounds are still written as their log2, byte for byte
    assert stats_row(MomentStats(2**13, 5, {2: 1.0}, None))[0] == "13"
    for cell, bound in (("13", 2**13), ("48", 2**48), ("100", 100)):
        text = emit_table([[cell, "1.000"] + [""] * (len(stats.STATS_HEADER) - 2)])
        assert parse_stats_tsv(text).bound == bound


@pytest.mark.parametrize("text,msg", [
    ("#n\ta1.M2\n10\t\n", "no moment values"),  # ranked all 26 groups at 0, C1 on top
    ("#n\ta1.M2\ta3.M2\n10\t1.0\t2.0\n", "a3.M2"),  # was read as the a2 moment M2
    ("#n\ta1.M2\n-3\t1.0\n", "negative bound"),  # was read as the bound 1/8
    ("#n\ta1.M2\n10\t1.0\t5.0\t7\n", "4 cells for 2 columns"),  # extra cells were dropped
    ("#n\ta1.M2\n-5\tjunk\t1\t2\n10\t1.0\n", "4 cells for 2 columns"),  # only the last row was read
    ("#n\ta1.M2\ta1.M4\n10\tnan\t2.0\n", "non-finite"),  # every group at distance nan, C1 first
    ("#n\ta1.M2\ta1.M4\n10\tinf\t2.0\n", "non-finite"),  # the same with inf
    ("#a1.M2\ta1.M4\n10\t3.0\n", "first column"),  # was read as a1.M4 = 3.0 at 2^10
    ("#a1.M2\tn\n3.0\t10\n", "first column"),  # n past the first column
    ("#n\ta1.M2\tn\n10\t1.0\t10\n", "repeated"),  # a second n
    ("#n\ta1.M2\ta1.M2\n10\t1.0\t2.0\n", "repeated"),  # the last duplicate was kept
], ids=["no-moments", "unknown-column", "negative-bound", "over-wide-row", "bad-earlier-row",
        "nan-cell", "inf-cell", "no-leading-n", "misplaced-n", "second-n", "repeated-column"])
def test_bad_stats_file_is_rejected_and_classify_exits_3(tmp_path, capsys, text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_stats_tsv(text)
    f = tmp_path / "in.tsv"
    f.write_text(text)
    assert cli.main(["stats", "classify", "--in", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad stats file:")


def test_cli_groups_table(capsys):
    rc = cli.main(["groups", "table", "--coeff", "a1", "--group", "USp(4)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "USp(4)\t1\t3\t14\t84\t594\t4719\t40898\t379236" in out


def test_cli_groups_invariants(capsys):
    rc = cli.main(["groups", "invariants"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "F_{ac}\t2\t4\t3\t[0,0,2,0,1]\tC4" in out
    assert len([ln for ln in out.splitlines() if not ln.startswith("#")]) == 26


def test_cli_motive_sum_deterministic(tmp_path, capsys):
    args = ["motive", "sum", "--f1", "27.2a", "--f2", "9.4a", "--field", "Q(w)",
            "--bound-log2", "13", "--classify"]
    rc = cli.main(args)
    out1 = capsys.readouterr().out
    rc2 = cli.main(args)
    out2 = capsys.readouterr().out
    assert rc == rc2 == 0
    assert out1 == out2  # byte-identical
    assert "# top C1" in out1


def test_cli_motive_cache_and_out(tmp_path):
    out = tmp_path / "stats.tsv"
    args = ["motive", "tensor-ec", "--e1", "0,4", "--e2", "0,1", "--field", "Q(omega)",
            "--bound-log2", "9", "--out", str(out), "--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    first = out.read_text()
    assert cli.main(args) == 0  # second run comes from cache
    assert out.read_text() == first
    caches = list(tmp_path.glob("*.tsv"))
    assert len(caches) >= 2  # stats file + cache file


def test_cli_classify_file(tmp_path, capsys):
    s = _exact_stats("G_{3,3}")
    f = tmp_path / "in.tsv"
    f.write_text(emit_table([stats_row(s)]))
    rc = cli.main(["stats", "classify", "--in", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].split("\t")[1] == "G_{3,3}"


def test_cli_classifies_the_file_motive_classify_writes(tmp_path, capsys):
    # the '# rank...' and '# top ...' lines come after the table: comments,
    # not headers, so the file ranks as the one written without --classify
    ranks = []
    for extra in ([], ["--classify"]):
        f = tmp_path / f"stats{len(extra)}.tsv"
        assert cli.main(["motive", "tensor-ec", "--e1", "0,4", "--e2", "0,1", "--field", "Q(w)",
                         "--bound-log2", "12", "--out", str(f)] + extra) == 0
        assert cli.main(["stats", "classify", "--in", str(f)]) == 0
        ranks.append(capsys.readouterr().out)
    assert "# top C2" in f.read_text()
    assert ranks[1] == ranks[0] and ranks[0].startswith("1\tC2\t")


def test_cli_stats_classify_reads_back_only_a_tsv_table(tmp_path, capsys):
    # an aligned table has no '#' header: it used to fail with "no stats rows found"
    f = tmp_path / "stats.txt"
    argv = ["motive", "symcube", "--e1", "0,1", "--bound-log2", "10", "--out", str(f)]
    assert cli.main(argv + ["--format", "aligned"]) == 0
    assert cli.main(["stats", "classify", "--in", str(f)]) == 3
    assert capsys.readouterr().err == ("error: bad stats file: no '#' header line: only "
                                       "--format tsv tables can be read back\n")
    assert cli.main(argv + ["--format", "tsv"]) == 0
    assert cli.main(["stats", "classify", "--in", str(f)]) == 0
    assert capsys.readouterr().out.startswith("1\t")


@pytest.mark.parametrize("name", [g.name for g in stgroups.catalog()])
def test_cli_groups_table_prints_each_groups_rows(name, capsys):
    for coeff, ns, table in (("a1", range(2, 17, 2), A1_MOMENTS), ("a2", range(1, 10), A2_MOMENTS)):
        assert cli.main(["groups", "table", "--coeff", coeff, "--group", name]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "#group\t" + "\t".join(f"M{n}" for n in ns),
            name + "\t" + "\t".join(map(str, table[name])),
        ]


def test_cli_error_codes(tmp_path, capsys):
    assert cli.main(["motive", "sum", "--f1", "nope", "--f2", "9.4a",
                     "--bound-log2", "8"]) == 2
    assert cli.main(["groups", "table", "--group", "nope"]) == 2
    assert cli.main(["motive", "tensor-ec", "--e1", "bad", "--e2", "0,1",
                     "--bound-log2", "8"]) == 2
    assert cli.main(["stats", "classify", "--in", str(tmp_path / "missing.tsv")]) == 3
    capsys.readouterr()
    out = tmp_path / "nonexistent" / "x.tsv"  # was a FileNotFoundError traceback, exit 1
    assert cli.main(["groups", "invariants", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")
    with pytest.raises(SystemExit) as exc:  # replaced by `groups table --coeff a1|a2 --group G`
        cli.main(["groups", "moments", "--group", "C1"])
    assert exc.value.code == 2 and "invalid choice: 'moments'" in capsys.readouterr().err


def test_cli_motive_checks_out_before_the_stream(tmp_path, monkeypatch, capsys):
    def stream(*args, **kwargs):
        raise AssertionError("the stream was computed")

    monkeypatch.setattr(motives, "cached_lpoly_stream", stream)
    argv = ["motive", "dwork", "--coeffs", "a1", "--bound-log2", "12", "--out"]
    (tmp_path / "file").write_text("")  # a parent that is a regular file
    for out, reason in ((tmp_path / "missing" / "x.tsv", "No such file or directory"),
                        (tmp_path, "Is a directory"),
                        (tmp_path / "file" / "x.tsv", "Not a directory"),
                        (tmp_path / "file" / "sub" / "x.tsv", "Not a directory")):
        assert cli.main(argv + [str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write --out {out}: {reason}\n"
    # a writable path passes the check and is not created before the stream
    out = tmp_path / "x.tsv"
    with pytest.raises(AssertionError, match="stream was computed"):
        cli.main(argv + [str(out)])
    assert not out.exists()


def test_cli_rejects_bad_jobs_and_takes_full_dwork_rows_past_2_12(monkeypatch, capsys):
    for jobs in ("0", "-2"):
        assert cli.main(["motive", "dwork", "--bound-log2", "7", "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def stream(*args, **kwargs):
        raise AssertionError("stream was computed")

    # --coeffs both (the default) past B = 5791 passes the argument checks
    monkeypatch.setattr(motives, "cached_lpoly_stream", stream)
    with pytest.raises(AssertionError, match="stream was computed"):
        cli.main(["motive", "dwork", "--z", "-1", "--bound-log2", "13"])


@pytest.mark.parametrize("argv,msg", [
    (["sum", "--f1", "9.4a", "--f2", "27.2a"], "weights (2, 4)"),
    (["tensor-mf", "--f1", "27.2a", "--f2", "9.4a"], "weights (2, 3)"),
    (["tensor-ec", "--e1", "0,4"], "missing --e2"),
    (["sum", "--f2", "9.4a"], "missing --f1"),
], ids=["sum-weights", "tensor-mf-weights", "tensor-ec-no-e2", "sum-no-f1"])
def test_cli_construction_errors_exit_2(argv, msg, capsys):
    assert cli.main(["motive", *argv, "--bound-log2", "8"]) == 2
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("argv,msg", [
    (["dwork", "--bound-log2", "-3"], "--bound-log2 must be at least 1"),
    (["dwork", "--bound-log2", "0"], "--bound-log2 must be at least 1"),
    (["symcube", "--e1", "0,1", "--bound-log2", "70"], "--bound-log2 must be at most 32"),
    (["dwork", "--z", "0", "--bound-log2", "7"], "z=0 is a degenerate fibre"),
    (["dwork", "--z", "1", "--bound-log2", "7"], "z=1 is a degenerate fibre"),
    (["dwork", "--z", "1/0", "--bound-log2", "7"], "motive dwork: z='1/0' is not a rational number"),
    (["symcube", "--e1", "0,0", "--bound-log2", "7"], "singular curve"),
    (["tensor-ec", "--e1", "0,1", "--e2", "0,0,0,0,0", "--bound-log2", "7"], "singular curve"),
], ids=["bound-negative", "bound-zero", "bound-too-large", "z0", "z1", "z-not-rational",
        "singular-short", "singular-long"])
def test_cli_names_degenerate_input(argv, msg, capsys):
    assert cli.main(["motive", *argv]) == 2
    assert msg in capsys.readouterr().err


def test_cli_weil_bound_break_in_coefficient_file_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "broken.4a.txt"
    path.write_text("3 1\n5 1000\n7 1\n")
    handle = cmforms.NewformHandle("broken.4a", 4, 1, "file", path=str(path))
    monkeypatch.setitem(cmforms.FORMS, "broken.4a", handle)
    rc = cli.main(["motive", "sum", "--f1", "27.2a", "--f2", "broken.4a",
                   "--bound-log2", "3"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error:") and "b_5=1000 breaks the Weil bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
def test_cli_unreadable_coefficient_file_exits_3(tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "broken.4a.txt"
    if content is not None:
        path.write_bytes(content)
    handle = cmforms.NewformHandle("broken.4a", 4, 1, "file", path=str(path))
    monkeypatch.setitem(cmforms.FORMS, "broken.4a", handle)
    rc = cli.main(["motive", "sum", "--f1", "27.2a", "--f2", "broken.4a",
                   "--bound-log2", "3"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error:") and str(path) in err
    assert "Traceback" not in err


def test_cli_weil_bound_break_in_computed_form_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cmforms, "_hecke_coeff", lambda *args: 10**6)
    rc = cli.main(["motive", "sum", "--f1", "27.2a", "--f2", "9.4a", "--bound-log2", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal consistency failure:") and "Weil bound" in err


def test_cli_dwork_a1_only(capsys):
    rc = cli.main(["motive", "dwork", "--z", "-1", "--bound-log2", "7",
                   "--coeffs", "a1"])
    out = capsys.readouterr().out
    assert rc == 0
    # a2 cells are empty in a1-only mode
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][0]
    cells = data.split("\t")
    assert cells[1] != "" and all(c == "" for c in cells[7:])


@pytest.mark.parametrize("argv", [
    ["sum", "--f1", "27.2a", "--f2", "9.4a", "--field", "Q(w)"],
    ["tensor-ec", "--e1", "0,4", "--e2", "0,1", "--field", "Q(w)"],
    ["symcube", "--e1", "0,1"],
    ["tensor-mf", "--f1", "27.2a", "--f2", "27.3.5a"],
], ids=["sum", "tensor-ec", "symcube", "tensor-mf"])
def test_cli_a1_only_for_every_construction(argv, capsys):
    """--coeffs a1 used to be read for dwork alone, so the other constructions
    printed their a2 cells and classified on them; now the a2 cells are empty
    and --classify ranks the a1 statistics alone."""
    assert cli.main(["motive", *argv, "--bound-log2", "8", "--coeffs", "a1", "--classify"]) == 0
    out = capsys.readouterr().out.splitlines()
    cells = [ln for ln in out if not ln.startswith("#")][0].split("\t")
    assert cells[1] != "" and all(c == "" for c in cells[7:])
    spec = cli._make_spec(cli.build_parser().parse_args(["motive", *argv, "--bound-log2", "8"]))
    st = moment_statistics(motives.cached_lpoly_stream(spec, 2**8, None, a1_only=True), 2**8)
    assert st.a2 is None
    ranked = classify(st).ranked[:5]
    assert [ln for ln in out if ln.startswith("# rank")] == [
        f"# rank{i + 1} {name} dist={d:.6g}" for i, (name, d) in enumerate(ranked)]


@pytest.mark.parametrize("bad_row", ["7\tjunk", "7"], ids=["junk", "short"])
def test_cli_corrupt_stream_cache_recomputes(tmp_path, capsys, bad_row):
    """A corrupt cache row used to end in a ValueError or an IndexError
    traceback; now the file is a miss, recomputed and rewritten."""
    argv = ["motive", "dwork", "--z", "-1", "--bound-log2", "6", "--coeffs", "a1",
            "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    fresh = capsys.readouterr().out
    (path,) = tmp_path.glob("*.tsv")
    good = path.read_text()
    path.write_text(good + bad_row + "\n")
    with pytest.warns(RuntimeWarning, match=path.name):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert path.read_text() == good


def test_cli_unusable_cache_warns_and_exits_0(tmp_path, capsys):
    """A directory at the cache path, or a --cache-dir that is a regular file,
    used to end in an IsADirectoryError or a FileExistsError traceback; now
    the stream is computed, printed and not cached, with a warning."""
    argv = ["motive", "dwork", "--z", "-1", "--bound-log2", "6", "--coeffs", "a1"]
    assert cli.main(argv) == 0
    fresh = capsys.readouterr().out
    cache_dir = tmp_path / "D2"
    assert cli.main(argv + ["--cache-dir", str(cache_dir)]) == 0
    (path,) = cache_dir.glob("*.tsv")
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match=path.name):
        assert cli.main(argv + ["--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out == fresh
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.warns(RuntimeWarning, match=f"cannot write stream cache {not_a_dir}"):
        assert cli.main(argv + ["--cache-dir", str(not_a_dir)]) == 0
    assert capsys.readouterr().out == fresh


# ---------------------------------------------------------------------------
# the documented exit-code table, on drawn bad input

_WORD = hst.text(string.ascii_letters + string.digits + ".()", min_size=1, max_size=10)
_GOOD_STATS = emit_table([stats_row(_exact_stats("USp(4)"))])


def _parses(parse, text):
    try:
        parse(text)
    except ValueError:
        return False
    return True


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bad_curve():
    wrong_count = hst.lists(hst.integers(-50, 50), min_size=1, max_size=6).filter(
        lambda xs: len(xs) not in (2, 5)).map(lambda xs: ",".join(map(str, xs)))
    not_int = _WORD.filter(lambda w: not _parses(int, w)).map(lambda w: f"0,{w}")
    singular = hst.integers(-20, 20).map(lambda t: f"{-3 * t * t},{2 * t**3}")  # 4A^3 + 27B^2 = 0
    return hst.one_of(wrong_count, not_int, singular)


def _bad_stats_file():
    no_moments = hst.just("#n\ta1.M2\ta2.M1\n10\t\t\n")
    unknown_col = hst.sampled_from(["a3.M2", "a1.M3", "a2.M9", "b1.M2", "a1.m2", "x"]).map(
        lambda col: f"#n\t{col}\n10\t1.5\n")
    bad_cell = _WORD.filter(lambda w: not _parses(_finite, w)).map(lambda w: f"#n\ta1.M2\n10\t{w}\n")
    non_finite = hst.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999"]).map(
        lambda w: f"#n\ta1.M2\ta2.M1\n10\t1.0\t{w}\n")
    no_rows = hst.sampled_from(["", "#n\ta1.M2\n", "10\t1.0\n"])
    negative_bound = hst.integers(-10**6, -1).flatmap(
        lambda n: hst.sampled_from([f"{n}", f"B={n}"])).map(lambda n: f"#n\ta1.M2\n{n}\t1.0\n")
    over_wide = hst.lists(hst.sampled_from(["", "5.0", "7"]), min_size=1, max_size=3).map(
        lambda extra: "#n\ta1.M2\n10\t1.0\t" + "\t".join(extra) + "\n")
    moments = hst.lists(hst.sampled_from(stats.STATS_HEADER[1:]), min_size=1, max_size=4, unique=True)
    no_leading_n = moments.flatmap(lambda cols: hst.permutations(cols + ["n"]) | hst.just(cols)).filter(
        lambda cols: cols[0] != "n").map(lambda cols: "#" + "\t".join(cols) + "\n10\t3.0\n")
    repeated = moments.flatmap(lambda cols: hst.sampled_from(["n"] + cols).map(
        lambda col: "#" + "\t".join(["n"] + cols + [col]) + "\n10\t1.0\n"))
    bad_row = hst.one_of(no_moments, bad_cell, non_finite, negative_bound, over_wide)
    earlier_bad_row = bad_row.map(lambda text: text + "10\t1.0\n")  # a good last row
    return hst.one_of(no_moments, unknown_col, bad_cell, non_finite, no_rows, negative_bound,
                      over_wide, earlier_bad_row, no_leading_n, repeated)


def _cases():
    """(argv, documented exit code, stats file text or None): one bad input a
    case, and a good stats file.  TMP in argv is a fresh directory holding the
    stats file as stats.tsv."""
    motive = ["motive", "symcube", "--e1", "0,1", "--bound-log2", "4"]
    bad_label = _WORD.filter(lambda w: w not in cmforms.FORMS)
    bad_group = _WORD.filter(lambda w: w not in {g.name for g in stgroups.catalog()})
    bad_z = hst.one_of(hst.integers(1, 99).flatmap(lambda d: hst.sampled_from([f"0/{d}", f"{d}/{d}"])),
                       hst.sampled_from(["0", "1", "1.0", "-0", "1/0", "z", "1/2/3", ""]))
    bad_out = hst.sampled_from(["TMP/missing/x.tsv", "TMP"])
    classify = ["stats", "classify", "--in", "TMP/stats.tsv"]
    return hst.one_of(
        bad_label.map(lambda w: (["motive", "sum", "--f1", w, "--f2", "9.4a", "--bound-log2", "4"],
                                 2, None)),
        bad_label.map(lambda w: (["motive", "tensor-mf", "--f1", "27.2a", "--f2", w,
                                  "--bound-log2", "4"], 2, None)),
        bad_group.map(lambda w: (["groups", "table", "--group", w], 2, None)),
        _bad_curve().map(lambda c: (["motive", "tensor-ec", "--e1", "0,4", "--e2", c,
                                     "--bound-log2", "4"], 2, None)),
        bad_z.map(lambda z: (["motive", "dwork", f"--z={z}", "--bound-log2", "4"], 2, None)),
        hst.integers(-10**6, 0).map(lambda n: (["motive", "dwork", "--bound-log2", str(n)], 2, None)),
        # past the sieve's limit: rejected before any allocation
        hst.integers(cli.MAX_BOUND_LOG2 + 1, 10**6).map(lambda n: (motive[:-1] + [str(n)], 2, None)),
        hst.sampled_from(["x", "1.5", ""]).map(lambda n: (motive[:-1] + [n], 2, None)),
        hst.integers(-10**6, 0).map(lambda j: (motive + ["--jobs", str(j)], 2, None)),
        bad_out.map(lambda out: (motive + ["--out", out], 2, None)),
        bad_out.map(lambda out: (["groups", "invariants", "--out", out], 2, None)),
        _bad_stats_file().map(lambda text: (classify, 3, text)),
        hst.just((classify, 0, _GOOD_STATS)),
        hst.just((classify, 3, None)),  # no such file
    )


@settings(max_examples=80)
@given(case=_cases())
def test_cli_exit_code_table(case):
    argv, code, stats_text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if stats_text is not None:
            with open(os.path.join(tmp, "stats.tsv"), "w") as fh:
                fh.write(stats_text)
        argv = [arg.replace("TMP", tmp) for arg in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                rc = exc.code
    assert rc == code, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip(), argv
