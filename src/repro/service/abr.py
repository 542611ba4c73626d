"""Adaptive-bitrate control plane: graceful degradation in virtual time.

The admission scheduler can degrade a session once and the recovery
plane can retry it, but neither *adapts* a live stream to the channel it
actually has.  This module adds that layer: a client-side buffer model
plus a rendition controller, both running entirely in virtual time, so
every decision -- which rung to fetch, when the client stalls, when a
switch is allowed -- is a pure function of ``(session identity, ladder,
bandwidth trace, policy)`` and therefore byte-identical across backends,
``--jobs`` counts, resumes, and chaos reruns.

The session model (``simulate_abr_session``) is deliberately decoupled
from the codec: it consumes plain byte-rate traces (per-segment bits per
rung) so the hypothesis property suite can drive it with synthetic
ladders at scale.  One media segment is one coded frame; with virtual
time in milliseconds, a ``frame_vms`` playout duration and the 1 kbit/s
== 1 bit/vms identity make download integration exact.

Controller ladder, weakest first:

- ``fixed``      -- pick the best rung for the *provisioned* rate at
  session start, never switch (the baseline the study beats);
- ``buffer``     -- step down when the client buffer runs low, up when
  it is comfortably full and the next rung fits the measured throughput;
- ``throughput`` -- sliding-window harmonic-mean predictor over observed
  download rates, pick the best rung under a safety factor;
- ``hybrid``     -- throughput choice, overridden by buffer panic/low
  states and gated so up-switches need a healthy buffer.

Every policy enforces a *dwell* window: after any switch, further
switches are suppressed for ``dwell_vms`` of virtual time -- the
hysteresis bound (at most one switch per dwell window) the property
suite pins.

Composition with PR 8's recovery plane is by outcome refinement, not by
rescheduling: admitted sessions keep their recovery chains (a blackout
still fails its attempt and drives the variant's breaker), and the ABR
verdict refines *delivered* sessions into ``rebuffered`` /
``switched_down`` while the **rescue lane** re-runs deadline-shed
sessions at the bottom rung -- a rendition down-switch attempted before
a shed, on the same recovery-lane precedent (it spends virtual time but
never pushes back the admission schedule).  The extended conservation
law becomes ``served + served_retry + degraded + switched_down +
rebuffered + shed + quarantined == offered``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.service.config import ServiceConfig
from repro.service.recovery import RecoveryReport
from repro.service.scheduler import (
    OUTCOME_QUARANTINED,
    OUTCOME_SHED,
    SHED_REASONS,
    FleetSchedule,
)
from repro.service.seeding import bandwidth_rng
from repro.service.session import SessionSpec
from repro.transport.bandwidth import BandwidthProfile, BandwidthTrace, build_trace

__all__ = [
    "OUTCOME_SWITCHED_DOWN",
    "OUTCOME_REBUFFERED",
    "ABR_OUTCOMES",
    "ABR_POLICIES",
    "ABR_POLICY_LADDER",
    "DEFAULT_SEGMENT_VMS",
    "AbrPolicy",
    "AbrSessionTrace",
    "AbrReport",
    "RenditionTrack",
    "ladder_tracks",
    "select_initial_rung",
    "simulate_abr_session",
    "simulate_abr_fleet",
]

#: ABR refinements of the delivered outcomes: a session that survived
#: only by dropping rungs (or via the shed-rescue lane), and a session
#: whose playback stalled at least once.
OUTCOME_SWITCHED_DOWN = "switched_down"
OUTCOME_REBUFFERED = "rebuffered"

#: The full ABR-refined taxonomy.  Conservation: the seven buckets sum
#: to ``offered``.
ABR_OUTCOMES = (
    "served",
    "served_retry",
    "degraded",
    OUTCOME_SWITCHED_DOWN,
    OUTCOME_REBUFFERED,
    OUTCOME_SHED,
    OUTCOME_QUARANTINED,
)

#: Playout duration of one media segment (one coded frame) in virtual ms.
DEFAULT_SEGMENT_VMS = 40.0


@dataclass(frozen=True)
class AbrPolicy:
    """One rung of the ABR-policy ladder."""

    name: str
    #: Adapt at all?  ``fixed`` keeps its initial rung for the session.
    adapt: bool = True
    #: Consult the throughput predictor / the buffer model.
    use_throughput: bool = False
    use_buffer: bool = False
    #: Sliding window (samples) of the harmonic-mean predictor.
    window: int = 4
    #: Safety factor on predicted throughput before picking a rung.
    safety: float = 0.85
    #: Buffer thresholds (virtual ms of buffered media).
    panic_buffer_vms: float = 20.0
    low_buffer_vms: float = 40.0
    high_buffer_vms: float = 120.0
    #: Hysteresis: after a switch, hold the rung for this long.
    dwell_vms: float = 100.0
    #: Up-switches move at most this many rungs per decision.
    max_up_step: int = 1
    #: Rescue lane: re-run deadline-shed sessions at the bottom rung.
    rescue_shed: bool = True

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("predictor window must be >= 1")
        if not 0 < self.safety <= 1:
            raise ValueError("safety factor must be in (0, 1]")
        if not 0 <= self.panic_buffer_vms <= self.low_buffer_vms \
                <= self.high_buffer_vms:
            raise ValueError("buffer thresholds must be ordered")
        if self.dwell_vms < 0:
            raise ValueError("dwell_vms must be >= 0")
        if self.max_up_step < 1:
            raise ValueError("max_up_step must be >= 1")


#: The policy ladder the ABR study compares, weakest first.
ABR_POLICIES = {
    "fixed": AbrPolicy("fixed", adapt=False, rescue_shed=False),
    "buffer": AbrPolicy("buffer", use_buffer=True),
    "throughput": AbrPolicy("throughput", use_throughput=True),
    "hybrid": AbrPolicy("hybrid", use_throughput=True, use_buffer=True),
}
ABR_POLICY_LADDER = ("fixed", "buffer", "throughput", "hybrid")


@dataclass(frozen=True)
class RenditionTrack:
    """The controller-plane view of one ladder rung: byte-rate and
    quality traces, no pixels."""

    name: str
    nominal_kbps: float
    segment_bits: tuple[int, ...]
    segment_psnr_db: tuple[float, ...]


def ladder_tracks(
    encodings, segment_vms: float = DEFAULT_SEGMENT_VMS
) -> tuple[RenditionTrack, ...]:
    """Controller tracks from ``codec.renditions`` encodings."""
    return tuple(
        RenditionTrack(
            name=encoding.spec.name,
            nominal_kbps=round(encoding.mean_kbps(segment_vms), 6),
            segment_bits=encoding.frame_bits,
            segment_psnr_db=encoding.frame_psnr_db,
        )
        for encoding in encodings
    )


def select_initial_rung(
    tracks: tuple[RenditionTrack, ...], capacity_kbps: float, safety: float
) -> int:
    """Best rung whose nominal rate fits under ``safety * capacity``
    (the bottom rung when none does) -- monotone in capacity."""
    choice = 0
    for index, track in enumerate(tracks):
        if track.nominal_kbps <= safety * capacity_kbps:
            choice = index
    return choice


@dataclass(frozen=True)
class AbrSessionTrace:
    """One session's full ABR history and buffer accounting.

    All times in virtual ms.  The buffer accounting closes by
    construction: ``download_vms == startup_vms + played_vms +
    rebuffer_vms`` and ``fill_vms == played_vms + final_buffer_vms``
    (the invariants the property suite asserts).
    """

    session_id: int
    policy: str
    rungs: tuple[int, ...]
    start_rung: int
    switch_up: int
    switch_down: int
    #: Virtual times at which switches took effect (dwell audit trail).
    switch_vms: tuple[float, ...]
    startup_vms: float
    played_vms: float
    rebuffer_vms: float
    rebuffer_events: int
    final_buffer_vms: float
    download_vms: float
    fill_vms: float
    psnr_db: float
    delivered_bits: int
    rescued: bool = False

    @property
    def n_switches(self) -> int:
        return self.switch_up + self.switch_down

    @property
    def end_vms(self) -> float:
        """Session wall: downloads then the tail of the buffer plays out."""
        return round(self.download_vms + self.final_buffer_vms, 6)

    @property
    def rebuffer_ratio(self) -> float:
        """Stall share of playback: stalled / (stalled + played media)."""
        denominator = self.rebuffer_vms + self.fill_vms
        if denominator <= 0:
            return 0.0
        return round(self.rebuffer_vms / denominator, 6)

    @property
    def mean_rung(self) -> float:
        if not self.rungs:
            return 0.0
        return round(sum(self.rungs) / len(self.rungs), 6)

    def accounting_closes(self, eps: float = 1e-9) -> bool:
        return (
            abs(self.download_vms
                - (self.startup_vms + self.played_vms + self.rebuffer_vms))
            <= eps
            and abs(self.fill_vms - (self.played_vms + self.final_buffer_vms))
            <= eps
        )


def _choose_rung(
    policy: AbrPolicy,
    tracks: tuple[RenditionTrack, ...],
    current: int,
    buffer_vms: float,
    predicted_kbps: float,
) -> int:
    """The controller's un-gated preference for the next segment."""
    top = len(tracks) - 1
    if not policy.adapt:
        return current
    if policy.use_throughput:
        candidate = select_initial_rung(tracks, predicted_kbps, policy.safety)
        if policy.use_buffer:
            # Hybrid: buffer state overrides the predictor.
            if buffer_vms < policy.panic_buffer_vms:
                candidate = 0
            elif buffer_vms < policy.low_buffer_vms:
                candidate = min(candidate, max(current - 1, 0))
            elif candidate > current and buffer_vms < policy.high_buffer_vms:
                candidate = current  # up-switches need a healthy buffer
    else:
        # Pure buffer policy: step relative to the current rung.  A full
        # buffer only says the current rung is sustainable; the next one
        # must also fit the measured throughput, under the same safety
        # rule as the initial pick, or the session would climb above its
        # channel and the final rung would depend on the starting rung.
        step_up = min(current + 1, top)
        if buffer_vms < policy.low_buffer_vms:
            candidate = max(current - 1, 0)
        elif (buffer_vms > policy.high_buffer_vms
              and tracks[step_up].nominal_kbps
              <= policy.safety * predicted_kbps):
            candidate = step_up
        else:
            candidate = current
    if candidate > current:
        candidate = min(candidate, current + policy.max_up_step)
    return min(max(candidate, 0), top)


def _harmonic_mean(samples) -> float:
    return len(samples) / sum(1.0 / s for s in samples)


def simulate_abr_session(
    session_id: int,
    tracks: tuple[RenditionTrack, ...],
    trace: BandwidthTrace,
    policy: AbrPolicy,
    loss_rate: float = 0.0,
    segment_vms: float = DEFAULT_SEGMENT_VMS,
    pin_rung: int | None = None,
) -> AbrSessionTrace:
    """Play one session through its bandwidth trace in virtual time.

    Per segment: the controller picks a rung, the segment's bits
    (inflated by ``1 / (1 - loss_rate)`` for repair overhead) download
    over the piecewise-constant capacity, the client buffer drains while
    the download runs -- stalling counts as startup before the first
    segment lands and as rebuffering after -- then one segment of media
    is appended.  ``pin_rung`` forces every decision (the rescue lane
    pins the bottom rung).
    """
    if not tracks:
        raise ValueError("rendition ladder must not be empty")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must be in [0, 1)")
    n_segments = len(tracks[0].segment_bits)
    inflation = 1.0 / (1.0 - loss_rate)

    if pin_rung is not None:
        current = min(max(pin_rung, 0), len(tracks) - 1)
    else:
        current = select_initial_rung(
            tracks, trace.capacity_kbps(0.0), policy.safety
        )
    start_rung = current
    predicted = trace.capacity_kbps(0.0)
    window: deque[float] = deque(maxlen=policy.window)

    t = 0.0
    buffer_vms = 0.0
    startup = 0.0
    played = 0.0
    rebuffer = 0.0
    rebuffer_events = 0
    switch_up = 0
    switch_down = 0
    switch_vms: list[float] = []
    last_switch = None
    rungs: list[int] = []
    delivered_bits = 0

    for index in range(n_segments):
        if index > 0 and pin_rung is None:
            candidate = _choose_rung(policy, tracks, current, buffer_vms,
                                     predicted)
            if candidate != current and (
                last_switch is None
                or t - last_switch >= policy.dwell_vms
            ):
                with obs.span(
                    "service.abr.decision", session=session_id,
                    segment=index, frm=current, to=candidate,
                    buffer_vms=round(buffer_vms, 4),
                ):
                    pass
                if candidate > current:
                    switch_up += 1
                    obs.counter_add("service.abr.switch_up")
                else:
                    switch_down += 1
                    obs.counter_add("service.abr.switch_down")
                last_switch = t
                switch_vms.append(round(t, 6))
                current = candidate
        rungs.append(current)
        bits = tracks[current].segment_bits[index] * inflation
        duration = trace.transfer_vms(t, bits)
        if duration > 0:
            window.append(bits / duration)
            predicted = _harmonic_mean(window)
        if index == 0:
            startup += duration
        else:
            drained = min(buffer_vms, duration)
            stall = duration - drained
            played += drained
            buffer_vms -= drained
            if stall > 0:
                rebuffer += stall
                rebuffer_events += 1
                obs.counter_add("service.abr.rebuffer_events")
        t += duration
        buffer_vms += segment_vms
        delivered_bits += tracks[current].segment_bits[index]

    fill = n_segments * segment_vms
    # Derived tail so the fill/drain/rebuffer accounting closes exactly.
    final_buffer = fill - played
    download = startup + played + rebuffer
    psnr_values = [
        tracks[rung].segment_psnr_db[i] for i, rung in enumerate(rungs)
    ]
    return AbrSessionTrace(
        session_id=session_id,
        policy=policy.name,
        rungs=tuple(rungs),
        start_rung=start_rung,
        switch_up=switch_up,
        switch_down=switch_down,
        switch_vms=tuple(switch_vms),
        startup_vms=round(startup, 6),
        played_vms=round(played, 6),
        rebuffer_vms=round(rebuffer, 6),
        rebuffer_events=rebuffer_events,
        final_buffer_vms=round(final_buffer, 6),
        download_vms=round(download, 6),
        fill_vms=round(fill, 6),
        psnr_db=round(sum(psnr_values) / len(psnr_values), 4)
        if psnr_values else 0.0,
        delivered_bits=delivered_bits,
        rescued=pin_rung is not None,
    )


@dataclass
class AbrReport:
    """The fleet's ABR verdict: refined outcomes plus the accounting."""

    policy: str
    outcomes: dict[str, int]
    shed_reasons: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in SHED_REASONS}
    )
    traces: list[AbrSessionTrace] = field(default_factory=list)
    session_outcomes: dict[int, str] = field(default_factory=dict)
    rescued: int = 0

    def __post_init__(self) -> None:
        self._by_id = {trace.session_id: trace for trace in self.traces}

    def trace_for(self, session_id: int) -> AbrSessionTrace:
        return self._by_id[session_id]

    @property
    def delivered(self) -> int:
        return len(self.traces)

    @property
    def rebuffer_ratio(self) -> float:
        stalled = sum(trace.rebuffer_vms for trace in self.traces)
        filled = sum(trace.fill_vms for trace in self.traces)
        if stalled + filled <= 0:
            return 0.0
        return round(stalled / (stalled + filled), 6)

    @property
    def rebuffer_events(self) -> int:
        return sum(trace.rebuffer_events for trace in self.traces)

    @property
    def switch_up(self) -> int:
        return sum(trace.switch_up for trace in self.traces)

    @property
    def switch_down(self) -> int:
        return sum(trace.switch_down for trace in self.traces)

    @property
    def switch_rate(self) -> float:
        """Switches per delivered session."""
        if not self.traces:
            return 0.0
        return round(
            sum(trace.n_switches for trace in self.traces) / len(self.traces),
            6,
        )

    @property
    def mean_psnr_db(self) -> float:
        if not self.traces:
            return 0.0
        return round(
            sum(trace.psnr_db for trace in self.traces) / len(self.traces), 4
        )

    @property
    def mean_rung(self) -> float:
        if not self.traces:
            return 0.0
        return round(
            sum(trace.mean_rung for trace in self.traces) / len(self.traces),
            4,
        )

    def conserves(self, schedule: FleetSchedule) -> bool:
        """The ABR-extended conservation law: the seven outcome buckets
        sum to offered, delivered traces match delivered buckets, and
        remaining sheds are all accounted by reason."""
        total = sum(self.outcomes.get(key, 0) for key in ABR_OUTCOMES)
        delivered_buckets = (
            total
            - self.outcomes.get(OUTCOME_SHED, 0)
            - self.outcomes.get(OUTCOME_QUARANTINED, 0)
        )
        return (
            total == schedule.offered
            and delivered_buckets == self.delivered
            and sum(self.shed_reasons.values())
            == self.outcomes.get(OUTCOME_SHED, 0)
        )


def simulate_abr_fleet(
    specs: list[SessionSpec],
    schedule: FleetSchedule,
    recovery: RecoveryReport,
    tracks_by_variant: dict[int, tuple[RenditionTrack, ...]],
    policy: AbrPolicy,
    profile: BandwidthProfile,
    provisioned_kbps: float,
    config: ServiceConfig,
    segment_vms: float = DEFAULT_SEGMENT_VMS,
) -> AbrReport:
    """Refine the fleet's recovery outcomes through the ABR plane.

    ``tracks_by_variant`` maps each scene variant to its ladder's
    controller tracks (variants have different byte-rate traces).  Per
    offered session, in arrival order:

    - a shed session stays shed -- unless it was shed on *deadline* and
      the policy rescues: then it streams pinned at the bottom rung on
      the rescue lane (classified ``switched_down``, or ``rebuffered``
      if even the bottom rung stalls).  Queue-full and token sheds stay
      shed: those are resource limits a cheaper rendition doesn't lift;
    - a quarantined session stays quarantined (the blackout -> breaker
      path already ran inside the recovery plane);
    - a delivered session plays through its bandwidth trace; any stall
      classifies it ``rebuffered``, else any down-switch classifies it
      ``switched_down``, else its recovery outcome stands.
    """
    if not tracks_by_variant or any(
        not tracks for tracks in tracks_by_variant.values()
    ):
        raise ValueError("rendition ladder must not be empty")
    by_id = {spec.session_id: spec for spec in specs}
    some_tracks = next(iter(tracks_by_variant.values()))
    horizon_vms = len(some_tracks[0].segment_bits) * segment_vms
    outcomes = {key: 0 for key in ABR_OUTCOMES}
    shed_reasons = {reason: 0 for reason in SHED_REASONS}
    session_outcomes: dict[int, str] = {}
    traces: list[AbrSessionTrace] = []
    rescued = 0

    def session_trace(spec: SessionSpec) -> BandwidthTrace:
        rng = (
            bandwidth_rng(spec.fleet_seed, spec.session_id)
            if profile.walk else None
        )
        return build_trace(profile, provisioned_kbps, horizon_vms, rng)

    def classify(trace: AbrSessionTrace, base_outcome: str) -> str:
        if trace.rebuffer_events > 0:
            return OUTCOME_REBUFFERED
        if trace.switch_down > 0 or trace.rescued:
            return OUTCOME_SWITCHED_DOWN
        return base_outcome

    for plan in schedule.plans:
        spec = by_id[plan.session_id]
        tracks = tracks_by_variant[spec.scene_variant]
        if not plan.admitted:
            if policy.rescue_shed and plan.shed_reason == "deadline":
                trace = simulate_abr_session(
                    spec.session_id, tracks, session_trace(spec), policy,
                    loss_rate=spec.loss_rate, segment_vms=segment_vms,
                    pin_rung=0,
                )
                rescued += 1
                obs.counter_add("service.abr.rescued")
                traces.append(trace)
                outcome = classify(trace, OUTCOME_SWITCHED_DOWN)
            else:
                shed_reasons[plan.shed_reason] += 1
                outcome = OUTCOME_SHED
            outcomes[outcome] += 1
            session_outcomes[spec.session_id] = outcome
            continue
        chain = recovery.chain_for(spec.session_id)
        if not chain.delivered:
            outcomes[OUTCOME_QUARANTINED] += 1
            session_outcomes[spec.session_id] = OUTCOME_QUARANTINED
            continue
        trace = simulate_abr_session(
            spec.session_id, tracks, session_trace(spec), policy,
            loss_rate=spec.loss_rate, segment_vms=segment_vms,
        )
        traces.append(trace)
        outcome = classify(trace, chain.outcome)
        outcomes[outcome] += 1
        session_outcomes[spec.session_id] = outcome

    return AbrReport(
        policy=policy.name,
        outcomes=outcomes,
        shed_reasons=shed_reasons,
        traces=traces,
        session_outcomes=session_outcomes,
        rescued=rescued,
    )
