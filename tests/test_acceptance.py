"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The Dwork a2 stream at B = 2^10 is computed once per session
(shared fixture) and dominates the runtime.

Tabulation notes for the Dwork reference rows (full analysis in the
repository's review notes):

* The reference statistics tables start the Dwork prime sum at p = 7 and
  lift c1 from the balanced residue mod p^2 at every prime.  At p = 7 the
  Weil bound 4*7^(3/2) = 74 exceeds 49/2, so that lift truncates the true
  c1 = 25 (verified here by a direct point count of the quintic threefold
  over F_7) to -24.  `reference_rows` reproduces exactly that convention;
  the library's own streams carry the true values.
* Row 10 of the reference a1 table prints M6 = 11.783; the value implied
  by the same convention that reproduces the other 12 entries of the row
  (and all of row 13) is 11.738, a digit transposition.  The test asserts
  the computed value and records the erratum.
"""

import time
from fractions import Fraction

import pytest

from stmotives import cmforms, motives, stats, stgroups
from stmotives.cmforms import CurveSpec, FORMS
from stmotives.ntkernel import Q, QW
from stmotives.records import LPoly

from sample_moments import sample_moments
from table_data import (
    A1_MOMENTS,
    A2_MOMENTS,
    BP_576_3_QUARTIC,
    BP_576_4_QUARTIC,
    BP_576_4_SEXTIC,
    INVARIANTS,
    ROW_ECPROD_C3_16,
    ROW_MFSUM_C1_16,
    ROW_MFSUM_JC1_16,
    ROW_USP4_10,
    ROW_USP4_13_A1,
)

USP4_ROW10_M6_ERRATUM = ("11.783", "11.738")  # (printed, computed)


def _report(tag: str, detail: str = ""):
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


def reference_rows(rows):
    """Map true (p, c1[, c2]) rows to the reference tables' tabulation:
    start at p = 7 and lift c1 at precision p^2."""
    out = []
    for row in rows:
        p = row[0]
        if p < 7:
            continue
        r = row[1] % (p * p)
        c1 = r - p * p if r > p * p // 2 else r
        out.append((p, c1) + tuple(row[2:]))
    return out


def test_01_group_moment_tables():
    t0 = time.time()
    for name in A1_MOMENTS:
        got1 = tuple(stgroups.moment(name, "a1", n) for n in range(2, 17, 2))
        assert got1 == A1_MOMENTS[name], name
        got2 = tuple(stgroups.moment(name, "a2", n) for n in range(1, 10))
        assert got2 == A2_MOMENTS[name], name
    dt = time.time() - t0
    assert dt < 60.0
    _report("[1] group moment tables (26 x 17 exact integers)", f"({dt:.1f}s)")


def test_02_table1_invariants():
    for name, expected in INVARIANTS.items():
        assert stgroups.invariants(name) == tuple(expected), name
    _report("[2] (d, c, z1, z2, [G/G0]) invariants for all 26 groups")


def test_03_printed_bp_tables():
    for label, table in (
        ("576.4.quartic", BP_576_4_QUARTIC),
        ("576.3.quartic", BP_576_3_QUARTIC),
        ("576.4.sextic", BP_576_4_SEXTIC),
    ):
        for p, want in table.items():
            assert cmforms.coeff(FORMS[label], p) == want, (label, p)
    _report("[3] three printed twisted-form b_p tables (primes <= 97)")


def test_04_direct_sum_regression_2pow16():
    t0 = time.time()
    spec_w = motives.MotiveSpec(motives.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    rows_w = motives.cached_lpoly_stream(spec_w, 2**16, None)
    got_w = stats.stats_row(stats.moment_statistics(rows_w, 2**16))[1:]
    assert got_w == ROW_MFSUM_C1_16
    spec_q = motives.MotiveSpec(motives.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    rows_q = motives.cached_lpoly_stream(spec_q, 2**16, None)
    got_q = stats.stats_row(stats.moment_statistics(rows_q, 2**16))[1:]
    assert got_q == ROW_MFSUM_JC1_16
    dt = time.time() - t0
    assert dt < 120.0
    _report("[4] 27.2a + 9.4a at B=2^16 over Q(w) and Q, all 26 printed cells", f"({dt:.1f}s)")


def test_05_tensor_ec_regression_and_classification():
    spec = motives.MotiveSpec(
        motives.TensorEC(CurveSpec.short(0, 4), CurveSpec.short(0, 1)), QW
    )
    rows = motives.cached_lpoly_stream(spec, 2**16, None)
    st = stats.moment_statistics(rows, 2**16)
    assert stats.stats_row(st)[1:] == ROW_ECPROD_C3_16
    result = stats.classify(st)
    assert result.top == "C3"
    assert set(result.clusters[0]) == {"C3", "C4", "C6", "F"}
    _report("[5] tensor y^2=x^3+4 (x) Sym^2 y^2=x^3+1 at B=2^16; classify -> C3 "
            f"(tie cluster {result.clusters[0]})")


def test_06a_dwork_row10(dwork_rows_1024, dwork_elapsed):
    rows = reference_rows(dwork_rows_1024)
    st = stats.moment_statistics(rows, 2**10)
    got = stats.stats_row(st)[1:]
    printed = list(ROW_USP4_10)
    erratum_idx = 2  # a1 M6
    assert printed[erratum_idx] == USP4_ROW10_M6_ERRATUM[0]
    expected = printed[:erratum_idx] + [USP4_ROW10_M6_ERRATUM[1]] + printed[erratum_idx + 1:]
    assert got == expected
    # classification on the library's true statistics
    true_st = stats.moment_statistics(dwork_rows_1024, 2**10)
    result = stats.classify(true_st)
    assert result.top == "USp(4)"
    dt = dwork_elapsed.get("seconds")
    assert dt is None or dt < 900.0
    _report("[6a] Dwork z=-1 B=2^10: a1 (6 values) + a2 (7 values) reproduced; "
            "classify -> USp(4)",
            f"[M6[a1] erratum: printed {USP4_ROW10_M6_ERRATUM[0]}, value "
            f"{USP4_ROW10_M6_ERRATUM[1]}] ({dt:.0f}s)" if dt else "")


def test_06b_dwork_row13_a1(dwork_rows_1024):
    t0 = time.time()
    spec = motives.MotiveSpec(motives.Dwork(Fraction(-1)), Q)
    rows = motives.cached_lpoly_stream(spec, 2**13, None, a1_only=True)
    dt = time.time() - t0
    st = stats.moment_statistics(reference_rows(rows), 2**13)
    assert stats.stats_row(st)[1:7] == ROW_USP4_13_A1
    result = stats.classify(stats.moment_statistics(rows, 2**13))
    assert result.top == "USp(4)"
    assert dt < 300.0
    _report("[6b] Dwork z=-1 B=2^13: a1 row reproduced; classify -> USp(4)", f"({dt:.1f}s)")


def test_07_cross_construction_identity():
    s1 = motives.MotiveSpec(motives.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    s2 = motives.MotiveSpec(motives.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]), Q)
    r1 = motives.cached_lpoly_stream(s1, 2**12, None)
    r2 = motives.cached_lpoly_stream(s2, 2**12, None)
    assert r1 == r2 and len(r1) == 562
    _report("[7] sum(27.2a, 9.4a) == tensor(27.2a, 27.3.5a) pair-by-pair, p <= 2^12",
            f"({len(r1)} primes)")


def test_08a_property_weil_bounds_all_constructions(dwork_rows_1024):
    bound = 2**14
    specs = [
        motives.MotiveSpec(motives.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q),
        motives.MotiveSpec(motives.DirectSum(FORMS["32.2a"], FORMS["9.4a"]), QW),
        motives.MotiveSpec(motives.TensorEC(CurveSpec.short(0, 4), CurveSpec.short(0, 1)), QW),
        motives.MotiveSpec(motives.SymCube(CurveSpec.short(0, 1)), Q),
        motives.MotiveSpec(motives.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]), Q),
    ]
    n = 0
    for spec in specs:
        for p, c1, c2 in motives.cached_lpoly_stream(spec, bound, None):
            # LPoly validates on construction; assert the bounds explicitly
            assert c1 * c1 <= 16 * p**3
            assert -2 * p * p <= c2 <= 6 * p * p
            n += 1
    # Dwork: full pairs at 2^10 (session fixture), c1-only up to 2^14
    for p, c1, c2 in dwork_rows_1024:
        LPoly(p, c1, c2)
        n += 1
    spec = motives.MotiveSpec(motives.Dwork(Fraction(-1)), Q)
    for p, c1 in motives.cached_lpoly_stream(spec, bound, None, a1_only=True, jobs=2):
        assert c1 * c1 <= 16 * p**3
        n += 1
    _report("[8a] Weil bounds + c2 range/integrality on every emitted L-polynomial",
            f"({n} L-polynomials, constructions x p<=2^14, dwork c2 at 2^10)")


def test_08b_dual_path_identities():
    from hg_oracle import DWORK, batch_evaluate, teich_eval, trace_Hq
    from stmotives import padic_hypergeom as ph

    for p in (7, 13, 43, 101):
        for z in (-1, 2):
            coeffs = ph.hp_poly(p, ph.GammaTables(p, 2))
            assert teich_eval(coeffs, z, p, 2) == trace_Hq(DWORK, z, p, 2)
    coeffs = ph.hp_poly(101, ph.GammaTables(101, 2))
    tree =batch_evaluate(coeffs, 101, 2, force="tree")
    horner = batch_evaluate(coeffs, 101, 2, force="horner")
    assert all(tree[z] == horner[z] for z in range(1, 101))
    for curve in (CurveSpec.short(0, 1), CurveSpec.short(-1, 0)):
        for p in range(5, 500):
            if not all(p % d for d in range(2, int(p**0.5) + 1)):
                continue
            if curve.discriminant() % p == 0:
                continue
            assert cmforms.ec_trace(curve, p) == cmforms.ec_trace_naive(curve, p)
    for p in [q for q in range(5, 10**4) if all(q % d for d in range(2, int(q**0.5) + 1))]:
        if p % 3 == 1:
            b = cmforms.coeff(FORMS["27.2a"], p)
            assert cmforms.coeff(FORMS["9.4a"], p) == b**3 - 3 * p * b
            assert cmforms.coeff(FORMS["27.3.5a"], p) == b * b - 2 * p
    _report("[8b] dual-path identities: hp_fast/trace, tree/Horner, CM/naive, "
            "power relations to 10^4")


def test_08c_monte_carlo_all_groups():
    t0 = time.time()
    n_samples = 1_000_000
    failures = []
    # sampled statistics cannot resolve these two degenerate families
    # (moment vectors within half a part in a thousand); the classifier
    # reports the tie cluster and must place the true group inside it
    degenerate = (
        frozenset({"C3", "C4", "C6", "F"}),
        frozenset({"J(C3)", "J(C4)", "J(C6)", "F_{ab}"}),
    )
    top1 = 0
    for g in stgroups.catalog():
        s1, s2 = stgroups.sample_many(g, n_samples, seed=g.catalog_index + 1)
        a1_means, a1_stds = sample_moments(s1, max(stats.A1_NS))
        a2_means, a2_stds = sample_moments(s2, max(stats.A2_NS))
        for coeff, means, stds in (("a1", a1_means, a1_stds), ("a2", a2_means, a2_stds)):
            for n in range(1, 9):
                emp = means[n]
                sig = stds[n] / n_samples**0.5
                exact = stgroups.moment(g, coeff, n)
                if abs(emp - exact) > 5 * sig + 1e-9:
                    failures.append((g.name, coeff, n, emp, exact, sig))
        # classification from sampled statistics
        st = stats.MomentStats(
            0, n_samples,
            {n: a1_means[n] for n in stats.A1_NS},
            {n: a2_means[n] for n in stats.A2_NS},
        )
        result = stats.classify(st)
        family = next((fam for fam in degenerate if g.name in fam), None)
        if family is None:
            assert result.top == g.name, (g.name, result.ranked[:3])
            top1 += 1
        else:
            assert result.top in family, (g.name, result.ranked[:3])
            assert g.name in result.clusters[0], (g.name, result.clusters[0])
            top1 += 1  # resolved up to the structural tie cluster
    assert not failures, failures[:4]
    dt = time.time() - t0
    _report("[8c] Monte-Carlo vs symbolic moments, 5 sigma at 10^6 samples, "
            "n <= 8, all 26 groups; classification lands in the right cluster",
            f"({dt:.0f}s)")
