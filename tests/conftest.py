"""Shared fixtures and collection hooks for the whole suite.

Three jobs:

- every test gets a ``tier1`` marker unless it opted into ``slow`` or
  ``fuzz``, so ``-m tier1`` / ``-m "not slow"`` select the commit gate
  without hand-tagging hundreds of tests;
- randomized tests draw from the shared ``rng`` fixture, seeded from a
  stable hash of the test's node id.  The stream is deterministic
  run-to-run and machine-to-machine, distinct per test (and per
  parametrized case), and independent of test execution order;
- Hypothesis runs under the ``tier1`` profile by default: derandomized
  and without a failure database, so one commit always gets one
  verdict.  ``--hypothesis-profile=explore --hypothesis-seed=N`` draws
  fresh examples instead; a counterexample it finds is pinned with
  ``@example`` once fixed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if not any(
            item.get_closest_marker(name) for name in ("slow", "fuzz", "tier1")
        ):
            item.add_marker(pytest.mark.tier1)


def _node_seed(nodeid: str) -> int:
    digest = hashlib.sha256(nodeid.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Deterministic per-test random generator (seeded from the node id)."""
    return np.random.default_rng(_node_seed(request.node.nodeid))
