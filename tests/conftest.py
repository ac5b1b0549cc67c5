import os
import sys

import pytest

import sdepth.poset
import sdepth.taylor
import sdepth.verifier

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _fresh_walk_cache():
    """Each test starts with an empty sdepth_exact shape-and-walk memo, an
    empty depth_quotient shape-and-pd memo and an empty verifier bracket
    memo, so a walk, pd or bracket memoised by an earlier test cannot
    stand in for one a test patches."""
    sdepth.poset._shape_walk.cache_clear()
    sdepth.taylor._shape_pd.cache_clear()
    sdepth.verifier._bracket.cache_clear()


@pytest.fixture
def walks(monkeypatch) -> list:
    """The modules sdepth_exact walks during the test, one per
    sdepth.poset.sdepth_walk call."""
    real = sdepth.poset.sdepth_walk
    walked = []

    def counting(module, budget=sdepth.poset.DEFAULT_BUDGET):
        walked.append(module)
        return real(module, budget)

    monkeypatch.setattr(sdepth.poset, "sdepth_walk", counting)
    return walked


@pytest.fixture
def taylor_runs(monkeypatch) -> list:
    """The ideals whose Betti numbers are computed during the test, one per
    sdepth.taylor.taylor_tor_ranks call."""
    real = sdepth.taylor.taylor_tor_ranks
    ran = []

    def counting(ideal):
        ran.append(ideal)
        return real(ideal)

    monkeypatch.setattr(sdepth.taylor, "taylor_tor_ranks", counting)
    return ran


@pytest.fixture
def top_decision_times_out(monkeypatch):
    """Every k-walk's first decision, at the maximal-cell upper bound,
    answers 'unknown' as if its time ran out; the others search."""
    real = sdepth.poset.sdepth_decision

    def patched(poset, k, budget=sdepth.poset.DEFAULT_BUDGET):
        maximal = poset.maximal_mask()
        if k == next(r for r, cls in enumerate(poset.rho_classes) if cls & maximal):
            return sdepth.poset.Decision("unknown", None, 0, 0.0)
        return real(poset, k, budget)

    monkeypatch.setattr(sdepth.poset, "sdepth_decision", patched)


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SDEPTH_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="extended tier: run with SDEPTH_EXTENDED=1")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
