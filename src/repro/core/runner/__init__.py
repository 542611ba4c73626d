"""Crash-safe study orchestration: supervision, chaos, ``repro study``.

- :mod:`repro.core.runner.supervisor` -- the supervised worker pool
  (heartbeats, watchdog budgets, retry/backoff, quarantine);
- :mod:`repro.core.runner.chaos` -- deterministic fault injection
  (``REPRO_CHAOS=<seed>:<profile>``);
- :mod:`repro.core.runner.deadline` -- the shared wall-clock budget
  utility (SIGALRM + portable async-exception fallback);
- :mod:`repro.core.runner.clock` -- injectable real/fake clocks;
- :mod:`repro.core.runner.orchestrator` -- ``repro study`` itself
  (imported explicitly; not re-exported here to keep the dependency
  graph acyclic with :mod:`repro.core.study`).

Runs persist through :mod:`repro.core.sweep`, the digest-verified JSON
cell store all five study families share (``study``, ``resilience``,
``serve``, ``faultstudy``, ``abrstudy``); no cell is pickled to disk.
"""

from repro.core.runner.chaos import (
    CHAOS_ENV,
    ChaosError,
    ChaosInjector,
    ChaosProfile,
    PROFILES,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.core.runner.clock import REAL_CLOCK, Clock, FakeClock, RealClock
from repro.core.runner.deadline import BudgetExpired, time_budget
from repro.core.runner.supervisor import (
    BackoffScheduler,
    QuarantinedTaskError,
    RetryPolicy,
    SupervisedPool,
    TaskAttempt,
    TaskOutcome,
    WorkerBudget,
)

__all__ = [
    "BackoffScheduler",
    "BudgetExpired",
    "CHAOS_ENV",
    "ChaosError",
    "ChaosInjector",
    "ChaosProfile",
    "Clock",
    "FakeClock",
    "PROFILES",
    "QuarantinedTaskError",
    "REAL_CLOCK",
    "RealClock",
    "RetryPolicy",
    "SupervisedPool",
    "TaskAttempt",
    "TaskOutcome",
    "WorkerBudget",
    "chaos_from_env",
    "parse_chaos_spec",
    "time_budget",
]
