"""Differential backend tests: serial vs the supervised fleet.

The contract: a backend decides only how fast the codec work runs, never
what it produces.  Results -- digests included -- must be bit-identical
across backends and across ``jobs`` counts.
"""

from __future__ import annotations

import pytest

from repro.service.backends import (
    BACKENDS,
    run_tasks,
    session_key,
    session_tasks,
)
from repro.service.config import DEFAULT_CONFIG
from repro.service.scheduler import schedule_fleet
from repro.service.session import build_fleet

N_SESSIONS = 12
SEED = 4


@pytest.fixture(scope="module")
def fleet():
    specs = build_fleet(SEED, N_SESSIONS, DEFAULT_CONFIG)
    return specs, schedule_fleet(specs, DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def reference(fleet):
    specs, schedule = fleet
    return run_tasks(session_tasks(specs, schedule, DEFAULT_CONFIG), "serial")


def test_backend_registry():
    assert BACKENDS == ("serial", "fleet")
    for gone in ("threads", "asyncio"):
        with pytest.raises(ValueError, match="backend"):
            run_tasks([], backend=gone)


def test_empty_fleet_executes_to_nothing():
    schedule = schedule_fleet([], DEFAULT_CONFIG)
    assert session_tasks([], schedule, DEFAULT_CONFIG) == []
    assert run_tasks([], "serial") == {}


def test_reference_covers_exactly_the_admitted(fleet, reference):
    _, schedule = fleet
    assert set(reference) == {
        session_key(p.session_id) for p in schedule.admitted_plans()
    }
    for plan in schedule.admitted_plans():
        assert reference[session_key(plan.session_id)].mode == plan.mode


def test_fleet_backend_matches_serial(fleet, reference):
    """Supervised worker processes (cold caches, own interpreters)
    reproduce the in-process results exactly."""
    specs, schedule = fleet
    results = run_tasks(
        session_tasks(specs, schedule, DEFAULT_CONFIG), backend="fleet", jobs=2
    )
    assert results == reference
