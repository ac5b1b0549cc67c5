import os
import sys

import pytest

import sdepth.poset

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _fresh_walk_cache():
    """Each test starts with an empty sdepth_exact result cache, so a walk
    memoised by an earlier test cannot stand in for one a test patches."""
    sdepth.poset._cached_walk.cache_clear()


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SDEPTH_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="extended tier: run with SDEPTH_EXTENDED=1")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
