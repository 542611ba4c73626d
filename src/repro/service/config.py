"""Service-wide configuration: session geometry, budgets, virtual time.

One frozen :class:`ServiceConfig` describes everything a streaming-service
run depends on besides the fleet seed and the session count: the
per-session codec geometry and quality ladder, the transport shape, and
the admission/scheduling budgets expressed in *virtual milliseconds*.

Virtual time is the determinism keystone.  The multiplexer never reads a
wall clock for a scheduling decision: sessions arrive, queue, get
admitted, degraded, or shed on a simulated timeline that is a pure
function of ``(fleet_seed, n_sessions, config)``.  Wall time only
determines how fast the answer is computed -- with the ``serial``
backend (the default) or a supervised ``fleet`` of one worker or eight,
the answer itself is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ServiceConfig", "DEFAULT_CONFIG", "MODE_FULL", "MODE_DEGRADED"]

#: Session quality modes: full-rate encode vs the coarser degraded rung
#: the scheduler falls back to under load.
MODE_FULL = "full"
MODE_DEGRADED = "degraded"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one streaming-service simulation.

    Work is counted in *macroblock units* (coded macroblocks per
    session); the shared encode budget is a service rate in units per
    virtual millisecond.  A degraded session is modeled at half the
    full-quality work (coarser quantization means far fewer coded
    coefficients through DCT/quant/VLC), which is also how its virtual
    service time is derived.
    """

    # -- per-session codec geometry and quality ladder ---------------------
    width: int = 48
    height: int = 32
    n_frames: int = 4
    gop_size: int = 4
    qp_full: int = 8
    qp_degraded: int = 16

    # -- per-session transport shape ---------------------------------------
    max_payload: int = 96
    fec_group: int = 4
    interleave_depth: int = 2
    #: Channel loss rates sessions draw from (uniform over the palette).
    loss_palette: tuple[float, ...] = (0.0, 0.01, 0.03, 0.05)
    #: Number of distinct synthetic scenes the fleet draws from (bounds
    #: the encode cache while keeping per-session bitstreams distinct).
    scene_variants: int = 4

    # -- virtual-time arrival process and budgets --------------------------
    #: Sessions arrive uniformly over this window (virtual ms).
    arrival_window_vms: float = 1000.0
    #: Shared encode budget: macroblock units served per virtual ms.
    capacity_units_per_vms: float = 2.0
    #: Decode-side service rate (decode is cheaper than encode).
    decode_units_per_vms: float = 4.0
    #: Virtual transport cost per sent packet.
    per_packet_vms: float = 0.05
    #: Admission queue bound: arrivals beyond this depth are shed.
    queue_limit: int = 32
    #: Queue depth at which new admissions are served degraded.
    degrade_depth: int = 4
    #: A session unable to finish within this budget of its arrival is
    #: degraded, and shed if even the degraded rung cannot make it.
    #: Sits just below the full-queue degraded drain time so that both
    #: deadline and queue_full shedding are exercised at saturation.
    deadline_vms: float = 190.0
    #: Token-bucket admission rate limit (tokens per virtual ms + burst).
    token_rate_per_vms: float = 0.2
    token_burst: float = 24.0
    #: Recovery-plane horizon: a retry that would start after this much
    #: virtual time is quarantined instead of scheduled -- the bound
    #: that keeps every fault/recovery timeline (and its backoff chains)
    #: finite whatever the policy.
    max_recovery_horizon_vms: float = 20000.0

    def __post_init__(self) -> None:
        if self.width % 16 or self.height % 16:
            raise ValueError("session geometry must be multiples of 16")
        if self.n_frames < 1:
            raise ValueError("n_frames must be positive")
        if self.scene_variants < 1:
            raise ValueError("scene_variants must be positive")
        if not self.loss_palette:
            raise ValueError("loss_palette must not be empty")
        if self.arrival_window_vms <= 0:
            raise ValueError("arrival_window_vms must be positive")
        if self.capacity_units_per_vms <= 0:
            raise ValueError("capacity_units_per_vms must be positive")
        if self.decode_units_per_vms <= 0:
            raise ValueError("decode_units_per_vms must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.degrade_depth < 0:
            raise ValueError("degrade_depth must be >= 0")
        if self.deadline_vms <= 0:
            raise ValueError("deadline_vms must be positive")
        if self.token_rate_per_vms < 0 or self.token_burst < 1:
            raise ValueError("token budget must allow at least one admission")
        if self.max_recovery_horizon_vms <= self.arrival_window_vms:
            raise ValueError(
                "max_recovery_horizon_vms must extend past the arrival window"
            )

    # -- derived work model -------------------------------------------------

    @property
    def n_macroblocks(self) -> int:
        return (self.width // 16) * (self.height // 16)

    def work_units(self, mode: str) -> int:
        """Macroblock units one session demands at ``mode`` quality."""
        full = self.n_macroblocks * self.n_frames
        if mode == MODE_FULL:
            return full
        if mode == MODE_DEGRADED:
            return max(1, math.ceil(full / 2))
        raise ValueError(f"unknown session mode {mode!r}")

    def service_vms(self, mode: str) -> float:
        """Virtual encode-service time of one session at ``mode``."""
        return self.work_units(mode) / self.capacity_units_per_vms

    def decode_vms(self, mode: str) -> float:
        """Virtual decode-service time of one session at ``mode``."""
        return self.work_units(mode) / self.decode_units_per_vms

    def qp_for(self, mode: str) -> int:
        if mode == MODE_FULL:
            return self.qp_full
        if mode == MODE_DEGRADED:
            return self.qp_degraded
        raise ValueError(f"unknown session mode {mode!r}")


#: The configuration every study/CLI entry point defaults to.
DEFAULT_CONFIG = ServiceConfig()
