"""Seeded fault injection for the streaming service: the ``FaultPlan``.

PR 3's ``REPRO_CHAOS`` injector batters the *orchestrator* (worker
kills, torn writes); this module injects failures into the *service
itself*, in band and in virtual time, so the recovery control plane in
``service/recovery.py`` has something principled to recover from.  Five
fault kinds cover the failure surface a session can present:

- ``crash``    -- the session's pipeline dies partway through its encode
  service (a fraction of the service time is wasted, nothing delivered);
- ``stall``    -- the session hangs: it consumes virtual time far past
  its service budget and never completes (a timeout must cut it short);
- ``corrupt``  -- the pipeline completes but delivers a corrupted
  bitstream the decoder rejects (full service time spent, nothing
  usable delivered);
- ``blackout`` -- the session's channel goes dark for a window of
  packets (consumed by the Gilbert-Elliott channel's blackout overlay);
  a long outage destroys the delivery, a short one degrades it;
- ``slow``     -- a slow worker inflates the attempt's service time
  (pure latency, the delivery itself is fine).

Determinism contract, same as ``core/runner/chaos``: every draw is a
pure function of ``(fleet_seed, session_id, attempt)`` through the
dedicated entropy branch in ``service/seeding.py`` -- no shared
generator, no draw-order coupling.  Retries of a faulted session draw
*fresh* outcomes (attempt 2 has its own ``(session, 2)`` draw), which is
exactly the transient-failure shape retry ladders exist to absorb, and
the whole plan is identical across the serial and fleet backends,
``--jobs`` counts, ``--resume``, and chaos-battered reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.seeding import fault_rng

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "SessionFault",
    "FaultPlan",
    "corrupt_stream",
]

#: Fault kinds, in mix-weight order.
FAULT_KINDS = ("crash", "stall", "corrupt", "blackout", "slow")


@dataclass(frozen=True)
class FaultConfig:
    """Shape of the injected fault process.

    ``intensity`` is the per-attempt fault probability -- the knob the
    fault study sweeps.  The mix weights and magnitude ranges are fixed
    per study so that "intensity 0.2" means the same hostile world to
    every recovery policy being compared.
    """

    #: Probability that any given attempt is faulted (0 disables).
    intensity: float = 0.0
    #: Relative weights over :data:`FAULT_KINDS`.
    mix: tuple[float, ...] = (0.30, 0.20, 0.20, 0.20, 0.10)
    #: A stalled attempt burns this multiple of its service time before
    #: failing on its own (a timeout detects it far sooner).
    stall_factor_range: tuple[float, float] = (6.0, 12.0)
    #: A slow attempt's service time is inflated by this factor.  Kept
    #: below the recovery timeout factor: slowness is latency, not loss.
    slow_factor_range: tuple[float, float] = (1.5, 2.5)
    #: A crash wastes this fraction of the attempt's service time.
    crash_fraction_range: tuple[float, float] = (0.1, 0.9)
    #: Blackout window length is drawn in [1, max]; a window at or past
    #: the fatal threshold destroys the delivery outright.
    blackout_max_packets: int = 24
    blackout_fatal_packets: int = 12
    #: Transmission index range blackout windows start in (sized to the
    #: smoke session's ~40-packet streams so windows actually land).
    blackout_start_range: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity {self.intensity} outside [0, 1]")
        if len(self.mix) != len(FAULT_KINDS):
            raise ValueError("mix must weight every fault kind")
        if any(w < 0 for w in self.mix) or sum(self.mix) <= 0:
            raise ValueError("mix weights must be non-negative, sum > 0")
        for low, high in (
            self.stall_factor_range,
            self.slow_factor_range,
            self.crash_fraction_range,
        ):
            if not 0.0 <= low <= high:
                raise ValueError(f"bad magnitude range ({low}, {high})")
        if not 1 <= self.blackout_fatal_packets <= self.blackout_max_packets:
            raise ValueError("blackout fatal threshold outside [1, max]")
        if self.blackout_start_range < 1:
            raise ValueError("blackout_start_range must be positive")

    @property
    def enabled(self) -> bool:
        return self.intensity > 0.0


@dataclass(frozen=True)
class SessionFault:
    """One scheduled fault: what strikes ``(session_id, attempt)``."""

    session_id: int
    attempt: int
    kind: str
    #: Kind-specific magnitude: wasted-service fraction (``crash``),
    #: service-time multiple (``stall``/``slow``); 0 otherwise.
    magnitude: float = 0.0
    #: Blackout window ``(start, end)`` in transmission indices.
    window: tuple[int, int] = (0, 0)

    @property
    def fatal_blackout(self) -> bool:
        """Whether this blackout window destroys the delivery (set at
        draw time against the config's fatal threshold)."""
        return self.kind == "blackout" and bool(self.magnitude)

    @property
    def fails_attempt(self) -> bool:
        """Whether the control plane models this attempt as failed."""
        if self.kind in ("crash", "stall", "corrupt"):
            return True
        if self.kind == "blackout":
            return self.fatal_blackout
        return False  # slow and short blackouts degrade, not fail


class FaultPlan:
    """The fleet's fault schedule: a pure function of the study seed.

    Stateless by construction -- ``fault_for`` derives each answer from
    ``(fleet_seed, session_id, attempt)`` on demand, so any process
    (worker, resumed run, other backend) computes the identical plan
    without coordination.
    """

    def __init__(self, fleet_seed: int, config: FaultConfig) -> None:
        self.fleet_seed = fleet_seed
        self.config = config

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def fault_for(self, session_id: int, attempt: int) -> SessionFault | None:
        """The fault striking ``(session_id, attempt)``, or None."""
        config = self.config
        if not config.enabled:
            return None
        rng = fault_rng(self.fleet_seed, session_id, attempt)
        if float(rng.random()) >= config.intensity:
            return None
        kind = self._draw_kind(float(rng.random()))
        if kind == "crash":
            low, high = config.crash_fraction_range
            return SessionFault(
                session_id, attempt, kind,
                magnitude=round(low + (high - low) * float(rng.random()), 6),
            )
        if kind in ("stall", "slow"):
            low, high = (
                config.stall_factor_range if kind == "stall"
                else config.slow_factor_range
            )
            return SessionFault(
                session_id, attempt, kind,
                magnitude=round(low + (high - low) * float(rng.random()), 6),
            )
        if kind == "blackout":
            start = int(rng.integers(0, config.blackout_start_range))
            length = int(rng.integers(1, config.blackout_max_packets + 1))
            fatal = length >= config.blackout_fatal_packets
            return SessionFault(
                session_id, attempt, kind,
                magnitude=1.0 if fatal else 0.0,
                window=(start, start + length),
            )
        return SessionFault(session_id, attempt, kind)  # corrupt

    def _draw_kind(self, u: float) -> str:
        weights = self.config.mix
        total = sum(weights)
        acc = 0.0
        for kind, weight in zip(FAULT_KINDS, weights):
            acc += weight / total
            if u < acc:
                return kind
        return FAULT_KINDS[-1]

    def faults_for_session(
        self, session_id: int, max_attempts: int
    ) -> list[SessionFault]:
        """Every fault scheduled across a session's possible attempts."""
        faults = []
        for attempt in range(1, max_attempts + 1):
            fault = self.fault_for(session_id, attempt)
            if fault is not None:
                faults.append(fault)
        return faults


#: Bytes of leading stream to destroy for a ``corrupt`` delivery.
_CORRUPT_PREFIX = 32


def corrupt_stream(data: bytes) -> bytes:
    """What a ``corrupt`` fault delivers: the stream with its VOL/VOP
    header prefix zeroed.

    Zeroing the leading start codes leaves the decoder nothing to
    synchronize on, so a corrupt delivery is *rejected* -- never
    silently concealed into wrong frames -- which is the failure model
    the control plane assumes (``tests/service/test_faults.py`` holds
    the real decoder to it).
    """
    prefix = min(_CORRUPT_PREFIX, len(data))
    return b"\x00" * prefix + data[prefix:]
