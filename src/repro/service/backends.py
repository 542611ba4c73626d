"""Execution backends: run the admitted sessions' pipelines.

The scheduler already decided *what* happens (who is admitted, at which
quality, with what virtual timing) -- and, when a fault plan is armed,
the recovery control plane refined that into per-session attempt chains
(who delivers, at which rung, on which channel seed, through which
blackout window).  A backend only decides *how fast* the corresponding
codec work gets done on the host machine:

- ``serial`` -- in-process loop, the reference and the default;
- ``fleet``  -- the supervised worker pool from ``core/runner``:
  process-level parallelism with heartbeat/watchdog supervision, retry
  on chaos-injected worker kills, and quarantine instead of hangs.

:func:`run_tasks` is the one fan-out: session pipelines (built by
:func:`session_tasks`) and the ABR study's rendition deliveries both go
through it.  Because every task is a pure function of its arguments,
the results -- digests included -- are bit-identical across backends
and across ``jobs`` counts.  The differential test suite holds both
backends to that contract.
"""

from __future__ import annotations

from repro import obs
from repro.service.config import ServiceConfig
from repro.service.scheduler import FleetSchedule
from repro.service.session import SessionSpec, execute_session

__all__ = ["BACKENDS", "run_tasks", "session_key", "session_tasks"]

BACKENDS = ("serial", "fleet")

#: One unit of work: ``(name, fn, args)``.
Task = tuple[str, "object", tuple]


def session_key(session_id: int) -> str:
    """Task name (and fleet chaos key) of one session's pipeline."""
    return f"session-{session_id}"


def session_tasks(
    specs: list[SessionSpec],
    schedule: FleetSchedule,
    config: ServiceConfig,
    recovery=None,
) -> list[Task]:
    """One :func:`execute_session` task per delivering session.

    ``recovery`` is an optional :class:`~repro.service.recovery.
    RecoveryReport`; without one, every admitted session delivers on its
    scheduled plan (the plain ``repro serve`` path).  With one, only
    delivering chains reach the data plane, with their final attempt's
    quality rung and channel overrides.
    """
    by_id = {spec.session_id: spec for spec in specs}
    if recovery is None:
        work = [
            (by_id[plan.session_id], plan.mode, None, ())
            for plan in schedule.plans
            if plan.admitted
        ]
    else:
        work = [
            (by_id[chain.session_id], chain.final_mode, chain.channel_seed,
             chain.blackout)
            for chain in recovery.delivered_chains()
        ]
    return [
        (session_key(spec.session_id), execute_session,
         (spec, mode, config, seed, blackout))
        for spec, mode, seed, blackout in work
    ]


def run_tasks(
    tasks: list[Task],
    backend: str = "serial",
    jobs: int = 1,
) -> dict[str, object]:
    """Run deterministic data-plane work; returns ``name -> result``.

    ``fn`` must be a module-level callable (picklable for the fleet
    backend) that is a pure function of its arguments.  On ``fleet``, a
    task that exhausts its retry ladder raises ``QuarantinedTaskError``
    out of the pool: the enclosing study cell fails loudly and is
    recomputed on ``--resume`` -- never published with holes.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    with obs.span("service.fleet.execute", backend=backend, jobs=jobs,
                  sessions=len(tasks)):
        if not tasks:
            return {}
        if backend == "serial":
            return {name: fn(*args) for name, fn, args in tasks}
        from repro.core.runner.supervisor import SupervisedPool, WorkerBudget

        pool = SupervisedPool(
            max_workers=jobs,
            budget=WorkerBudget(wall_s=120.0, heartbeat_s=30.0),
        )
        return dict(pool.results_or_raise(tasks))
