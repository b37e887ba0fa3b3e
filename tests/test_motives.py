"""Construction formulas, streams, caching, and cross-construction identities."""

from fractions import Fraction

import pytest

from stmotives import motives as mv
from stmotives.cmforms import CurveSpec, FORMS, coeff, ec_trace
from stmotives.ntkernel import Q, QW
from stmotives.records import ConsistencyError, LPoly, SkippedPrime, normalize


def test_direct_sum_formula_at_split_prime():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["32.2a"], FORMS["9.4a"]), Q)
    p = 13
    b = coeff(FORMS["32.2a"], p)
    d = coeff(FORMS["9.4a"], p)
    lp = mv.lpoly(spec, p)
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
    lp = mv.lpoly(spec, p)
    assert (lp.c1, lp.c2) == (0, 2 * p * p)
    assert normalize(lp).a1 == 0.0
    assert normalize(lp).a2 == 2.0


def test_degree_one_filter_and_skips():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    with pytest.raises(SkippedPrime):
        mv.lpoly(spec, 5)  # inert in Q(w)
    with pytest.raises(SkippedPrime):
        mv.lpoly(spec, 3)  # divides the level
    ps = [p for p, _ in mv.lpoly_stream(spec, 50)]
    assert ps == [7, 13, 19, 31, 37, 43]


def test_stream_excludes_two_even_over_q():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    ps = [p for p, _ in mv.lpoly_stream(spec, 20)]
    assert ps == [5, 7, 11, 13, 17, 19]


def test_cross_construction_identity_sum_vs_tensor():
    """The direct sum 27.2a + 9.4a and the tensor 27.2a x 27.3.5a give the
    same L-polynomial at every good prime."""
    s1 = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), Q)
    s2 = mv.MotiveSpec(mv.TensorMF(FORMS["27.2a"], FORMS["27.3.5a"]), Q)
    r1 = [(p, lp.c1, lp.c2) for p, lp in mv.lpoly_stream(s1, 2**12)]
    r2 = [(p, lp.c1, lp.c2) for p, lp in mv.lpoly_stream(s2, 2**12)]
    assert r1 == r2
    assert len(r1) == len([p for p in range(3, 4097) if all(p % d for d in range(2, p)) and p != 3])


def test_quadratic_twist_in_sym_square_slot_is_invisible():
    # t2 enters squared, so twisting E2 quadratically changes nothing
    e = CurveSpec.short(0, 1)
    e_tw = CurveSpec.short(0, 8)  # quadratic twist by 2
    sc = mv.MotiveSpec(mv.SymCube(e), QW)
    te = mv.MotiveSpec(mv.TensorEC(e, e_tw), QW)
    a = [(p, lp.c1, lp.c2) for p, lp in mv.lpoly_stream(sc, 800)]
    b = [(p, lp.c1, lp.c2) for p, lp in mv.lpoly_stream(te, 800)]
    assert a == b


def test_normalized_ranges_random_sweep():
    specs = [
        mv.MotiveSpec(mv.DirectSum(FORMS["32.2a"], FORMS["9.4a"]), Q),
        mv.MotiveSpec(mv.TensorEC(CurveSpec.short(1, 1), CurveSpec.short(0, 1)), QW),
        mv.MotiveSpec(mv.SymCube(CurveSpec.short(1, 1)), Q),
        mv.MotiveSpec(mv.TensorMF(FORMS["11.2a"], FORMS["27.3.5a"]), Q),
    ]
    for spec in specs:
        for p, lp in mv.lpoly_stream(spec, 600):
            nc = normalize(lp)
            assert -4.0 <= nc.a1 <= 4.0
            assert -2.0 <= nc.a2 <= 6.0
            # palindromic coefficient layout
            assert lp.coefficients() == (1, lp.c1, lp.c2 * p, lp.c1 * p**3, p**6)


def test_lpoly_validates_weil_bounds():
    with pytest.raises(ConsistencyError):
        LPoly(7, 100, 0)
    with pytest.raises(ConsistencyError):
        LPoly(7, 0, -99)


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


def test_parallel_stream_matches_serial():
    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    serial = mv.cached_lpoly_stream(spec, 2000, None, jobs=1)
    parallel = mv.cached_lpoly_stream(spec, 2000, None, jobs=2)
    assert serial == parallel


def test_parallel_fallback_warns_and_matches_serial(monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no semaphores here")

    spec = mv.MotiveSpec(mv.DirectSum(FORMS["27.2a"], FORMS["9.4a"]), QW)
    serial = mv.cached_lpoly_stream(spec, 2000, None, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.warns(RuntimeWarning, match="no semaphores here"):
        fallback = mv.cached_lpoly_stream(spec, 2000, None, jobs=2)
    assert fallback == serial


def test_dwork_a1_parallel_stream_matches_serial():
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    serial = mv.cached_lpoly_stream(spec, 2**9, None, a1_only=True, jobs=1)
    assert serial == list(mv.a1_stream(spec, 2**9))
    assert mv.cached_lpoly_stream(spec, 2**9, None, a1_only=True, jobs=2) == serial


def test_dwork_spec_streams(dwork_rows_1024):
    rows = dwork_rows_1024
    assert rows[0][0] == 3
    assert all(len(r) == 3 for r in rows)
    ps = [r[0] for r in rows]
    assert 5 not in ps and 2 not in ps
    # a1-only stream agrees with the full one on c1
    spec = mv.MotiveSpec(mv.Dwork(Fraction(-1)), Q)
    small = dict(mv.a1_stream(spec, 128))
    full = {r[0]: r[1] for r in rows if r[0] <= 128}
    assert small == full
