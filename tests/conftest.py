import pytest
from hypothesis import settings

# no per-example deadline anywhere: first examples build gamma tables and
# moment series, so their time says nothing about the code under test
settings.register_profile("stmotives", deadline=None)
settings.load_profile("stmotives")


_DWORK_ELAPSED = {}


@pytest.fixture(scope="session")
def dwork_rows_1024():
    """Full (p, c1, c2) Dwork stream at z = -1, B = 2^10 (the expensive
    H_{p^2} computation), shared across the suite."""
    import time
    from fractions import Fraction

    from stmotives import motives

    spec = motives.MotiveSpec(motives.Dwork(Fraction(-1)), motives.Q)
    t0 = time.time()
    rows = motives.cached_lpoly_stream(spec, 2**10, cache_dir=None, jobs=2)
    _DWORK_ELAPSED["seconds"] = time.time() - t0
    return rows


@pytest.fixture(scope="session")
def dwork_elapsed():
    return _DWORK_ELAPSED
