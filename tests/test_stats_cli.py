"""Statistics, classification behavior, table emission, CLI surface."""

import io
import sys

import pytest

from stmotives import cli, stats, stgroups
from stmotives.stats import MomentStats, classify, emit_table, moment_statistics, parse_stats_tsv, stats_row

from table_data import A1_MOMENTS, A2_MOMENTS


def test_constant_stream_statistics():
    # a1 = 0, a2 = 2 p^2 / p^2 = 2 identically
    rows = [(p, 0, 2 * p * p) for p in (7, 13, 19, 31)]
    s = moment_statistics(rows, 32)
    for n in (2, 4, 6):
        assert s.moment("a1", n) == 0.0
    for n in range(1, 10):
        assert s.moment("a2", n) == pytest.approx(2.0**n, rel=1e-12)


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


def test_cli_error_codes(tmp_path, capsys):
    assert cli.main(["motive", "sum", "--f1", "nope", "--f2", "9.4a",
                     "--bound-log2", "8"]) == 2
    assert cli.main(["groups", "table", "--group", "nope"]) == 2
    assert cli.main(["motive", "tensor-ec", "--e1", "bad", "--e2", "0,1",
                     "--bound-log2", "8"]) == 2
    assert cli.main(["stats", "classify", "--in", str(tmp_path / "missing.tsv")]) == 3
    capsys.readouterr()


def test_cli_rejects_bad_jobs_and_dwork_bound_past_kernel_range(capsys):
    for jobs in ("0", "-2"):
        assert cli.main(["motive", "dwork", "--bound-log2", "7", "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert cli.main(["motive", "dwork", "--z", "-1", "--bound-log2", "13"]) == 2
    err = capsys.readouterr().err
    assert "5791" in err and "2^50" in err


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
    (["dwork", "--z", "0", "--bound-log2", "7"], "z=0 is a degenerate fibre"),
    (["dwork", "--z", "1", "--bound-log2", "7"], "z=1 is a degenerate fibre"),
    (["symcube", "--e1", "0,0", "--bound-log2", "7"], "singular curve"),
    (["tensor-ec", "--e1", "0,1", "--e2", "0,0,0,0,0", "--bound-log2", "7"], "singular curve"),
], ids=["bound-negative", "bound-zero", "z0", "z1", "singular-short", "singular-long"])
def test_cli_names_degenerate_input(argv, msg, capsys):
    assert cli.main(["motive", *argv]) == 2
    assert msg in capsys.readouterr().err


def test_cli_dwork_a1_only(capsys):
    rc = cli.main(["motive", "dwork", "--z", "-1", "--bound-log2", "7",
                   "--coeffs", "a1"])
    out = capsys.readouterr().out
    assert rc == 0
    # a2 cells are empty in a1-only mode
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][0]
    cells = data.split("\t")
    assert cells[1] != "" and all(c == "" for c in cells[7:])


def test_cli_env_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    rc = cli.main(["motive", "symcube", "--e1", "0,1", "--field", "Q",
                   "--bound-log2", "8"])
    capsys.readouterr()
    assert rc == 0
    assert list(tmp_path.glob("*.tsv"))
