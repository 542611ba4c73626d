"""Streaming service layer: a deterministic session multiplexer.

Turns the codec + transport stack into a simulated streaming *service*:
N client sessions, each running its own encode -> packetize -> lossy
channel -> decode pipeline under a private spawned seed, contending for
one shared encode budget behind admission control (token bucket, bounded
queue, deadline shedding) with a three-way outcome taxonomy --
served / degraded / shed -- refined by the fault-injection and recovery
control plane (``service/faults.py`` + ``service/recovery.py``) into
served / served_retry / degraded / shed / quarantined -- and further by
the adaptive-bitrate control plane (``service/abr.py``) into the full
seven-bucket taxonomy with ``switched_down`` / ``rebuffered``.

Scheduling happens in *virtual time*, so every decision and every
reported latency is a pure function of ``(fleet_seed, n_sessions,
config)``; the ``serial`` backend (the default) and the supervised
worker ``fleet`` only change how fast the bit-identical answer is
computed.  ``python -m repro serve`` runs the scale study (sessions/sec
vs latency percentiles vs delivered PSNR as N grows); ``python -m repro
faultstudy`` sweeps
availability / MTTR / retry amplification against fault intensity
across the recovery-policy ladder; ``python -m repro abrstudy`` sweeps
delivered PSNR / rebuffer ratio / switch rate against provisioned
bandwidth under time-varying channel capacity.  All three studies
persist their cells through :mod:`repro.core.sweep`, the one place that
owns the cell-store format.
"""

from repro.service.abr import (
    ABR_OUTCOMES,
    ABR_POLICIES,
    ABR_POLICY_LADDER,
    OUTCOME_REBUFFERED,
    OUTCOME_SWITCHED_DOWN,
    AbrPolicy,
    AbrReport,
    AbrSessionTrace,
    ladder_tracks,
    simulate_abr_fleet,
    simulate_abr_session,
)
from repro.service.backends import BACKENDS, run_tasks, session_key, session_tasks
from repro.service.config import (
    DEFAULT_CONFIG,
    MODE_DEGRADED,
    MODE_FULL,
    ServiceConfig,
)
from repro.service.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultPlan,
    SessionFault,
    corrupt_stream,
)
from repro.service.recovery import (
    POLICIES,
    POLICY_LADDER,
    QUARANTINE_REASONS,
    CircuitBreaker,
    RecoveryPolicy,
    RecoveryReport,
    SessionChain,
    simulate_recovery,
)
from repro.service.scheduler import (
    EXTENDED_OUTCOMES,
    OUTCOME_DEGRADED,
    OUTCOME_QUARANTINED,
    OUTCOME_SERVED,
    OUTCOME_SERVED_RETRY,
    OUTCOME_SHED,
    SHED_REASONS,
    FleetSchedule,
    SessionPlan,
    schedule_fleet,
)
from repro.service.seeding import SessionSeed, spawn_session_seeds
from repro.service.session import (
    SessionResult,
    SessionSpec,
    build_fleet,
    execute_session,
)

__all__ = [
    "ABR_OUTCOMES",
    "ABR_POLICIES",
    "ABR_POLICY_LADDER",
    "AbrPolicy",
    "AbrReport",
    "AbrSessionTrace",
    "BACKENDS",
    "DEFAULT_CONFIG",
    "OUTCOME_REBUFFERED",
    "OUTCOME_SWITCHED_DOWN",
    "ladder_tracks",
    "run_tasks",
    "session_key",
    "session_tasks",
    "simulate_abr_fleet",
    "simulate_abr_session",
    "EXTENDED_OUTCOMES",
    "FAULT_KINDS",
    "MODE_DEGRADED",
    "MODE_FULL",
    "OUTCOME_DEGRADED",
    "OUTCOME_QUARANTINED",
    "OUTCOME_SERVED",
    "OUTCOME_SERVED_RETRY",
    "OUTCOME_SHED",
    "POLICIES",
    "POLICY_LADDER",
    "QUARANTINE_REASONS",
    "SHED_REASONS",
    "CircuitBreaker",
    "FaultConfig",
    "FaultPlan",
    "FleetSchedule",
    "RecoveryPolicy",
    "RecoveryReport",
    "ServiceConfig",
    "SessionChain",
    "SessionFault",
    "SessionPlan",
    "SessionResult",
    "SessionSeed",
    "SessionSpec",
    "build_fleet",
    "corrupt_stream",
    "execute_session",
    "schedule_fleet",
    "simulate_recovery",
    "spawn_session_seeds",
]
