"""Virtual-time admission control and scheduling for the session fleet.

The multiplexer's scheduling brain is a discrete-event simulation over
*virtual milliseconds*: sessions arrive on a seeded timeline and contend
for one shared encode budget (a service rate in macroblock units per
virtual ms).  Every decision -- admit, degrade, shed -- is made in
arrival order from state that depends only on earlier arrivals, so the
whole schedule is a pure function of ``(specs, config)``.  Wall-clock
parallelism (``serial`` or a ``fleet`` of N workers) can never change it.

Backpressure ladder, in the order it is applied to each arrival:

1. **bounded queue** -- more than ``queue_limit`` sessions already
   waiting or in service: shed (``queue_full``);
2. **degrade under pressure** -- queue deeper than ``degrade_depth``:
   serve the coarser quality rung (half the work);
3. **deadline shedding** -- even the degraded rung cannot finish within
   ``deadline_vms`` of arrival: shed (``deadline``);
4. **token budget** -- admissions are rate-limited by a token bucket;
   an empty bucket sheds (``tokens``).

A token is consumed exactly when a session is scheduled, so the budget
conserves: ``served + degraded == tokens_consumed`` and
``served + degraded + shed == offered``.  Shedding is loud by
construction -- every offered session gets a plan with an outcome and,
when shed, a reason; there is no code path that drops one silently.

Decisions are FIFO: an admitted session's start time is the moment the
server frees up, starts are monotone in arrival order, and the wait of
any admitted session is bounded by ``queue_limit`` full service times --
the no-starvation guarantee the property suite pins down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.service.config import MODE_DEGRADED, MODE_FULL, ServiceConfig
from repro.service.session import SessionSpec

__all__ = [
    "OUTCOME_SERVED",
    "OUTCOME_DEGRADED",
    "OUTCOME_SHED",
    "OUTCOME_SERVED_RETRY",
    "OUTCOME_QUARANTINED",
    "EXTENDED_OUTCOMES",
    "SHED_REASONS",
    "SessionPlan",
    "FleetSchedule",
    "schedule_fleet",
]

OUTCOME_SERVED = "served"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"
#: Recovery-plane refinements of the admitted outcomes (see
#: ``service/recovery.py``): a session delivered only after one or more
#: faulted attempts, and a session the recovery plane gave up on.
OUTCOME_SERVED_RETRY = "served_retry"
OUTCOME_QUARANTINED = "quarantined"

#: The full service taxonomy, admission ladder first.  The admission
#: scheduler alone produces the first three; the recovery control plane
#: refines admitted sessions into all five.  The extended conservation
#: law is ``served + served_retry + degraded + shed + quarantined ==
#: offered``.
EXTENDED_OUTCOMES = (
    OUTCOME_SERVED,
    OUTCOME_SERVED_RETRY,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    OUTCOME_QUARANTINED,
)

#: Why a session was shed, in ladder order.
SHED_REASONS = ("queue_full", "deadline", "tokens")


@dataclass(frozen=True)
class SessionPlan:
    """The scheduler's verdict on one offered session."""

    session_id: int
    arrival_vms: float
    outcome: str
    shed_reason: str | None = None
    start_vms: float = 0.0
    service_vms: float = 0.0
    finish_vms: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.outcome in (OUTCOME_SERVED, OUTCOME_DEGRADED)

    @property
    def mode(self) -> str:
        if self.outcome == OUTCOME_SERVED:
            return MODE_FULL
        if self.outcome == OUTCOME_DEGRADED:
            return MODE_DEGRADED
        raise ValueError(f"shed session {self.session_id} has no mode")

    @property
    def wait_vms(self) -> float:
        return self.start_vms - self.arrival_vms


@dataclass
class FleetSchedule:
    """The whole fleet's plans (arrival order) plus admission accounting."""

    plans: list[SessionPlan]
    offered: int = 0
    served: int = 0
    degraded: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in SHED_REASONS}
    )
    tokens_consumed: int = 0
    makespan_vms: float = 0.0
    peak_queue_depth: int = 0

    def __post_init__(self) -> None:
        self._by_id = {plan.session_id: plan for plan in self.plans}

    @property
    def admitted(self) -> int:
        return self.served + self.degraded

    def plan_for(self, session_id: int) -> SessionPlan:
        return self._by_id[session_id]

    def admitted_plans(self) -> list[SessionPlan]:
        return [plan for plan in self.plans if plan.admitted]

    def conserves(self) -> bool:
        """The token-budget conservation law the property suite asserts."""
        return (
            self.admitted + self.shed == self.offered
            and self.tokens_consumed == self.admitted
            and sum(self.shed_reasons.values()) == self.shed
        )


def schedule_fleet(
    specs: list[SessionSpec], config: ServiceConfig
) -> FleetSchedule:
    """Plan every offered session on the shared virtual-time budget.

    ``specs`` must be in arrival order (``build_fleet`` produces them
    sorted); decisions are made strictly in that order so the schedule
    for the first ``k`` arrivals is identical whether or not more follow.
    """
    plans: list[SessionPlan] = []
    shed_reasons = {reason: 0 for reason in SHED_REASONS}
    counts = {OUTCOME_SERVED: 0, OUTCOME_DEGRADED: 0}
    tokens_consumed = 0
    makespan = 0.0
    peak_depth = 0
    server_free_at = 0.0
    tokens = float(config.token_burst)
    last_refill = 0.0
    in_flight: deque[float] = deque()  # finish times of scheduled sessions
    last_arrival = -1.0

    def shed(spec: SessionSpec, reason: str) -> None:
        shed_reasons[reason] += 1
        obs.counter_add(f"service.shed.{reason}")
        plans.append(
            SessionPlan(
                session_id=spec.session_id,
                arrival_vms=spec.arrival_vms,
                outcome=OUTCOME_SHED,
                shed_reason=reason,
            )
        )

    for spec in specs:
        now = spec.arrival_vms
        if now < last_arrival:
            raise ValueError("session specs must be sorted by arrival time")
        last_arrival = now
        # Token bucket refills with virtual time regardless of outcomes.
        tokens = min(
            float(config.token_burst),
            tokens + config.token_rate_per_vms * (now - last_refill),
        )
        last_refill = now
        # Sessions whose encode finished by now are out of the queue.
        while in_flight and in_flight[0] <= now:
            in_flight.popleft()
        depth = len(in_flight)
        peak_depth = max(peak_depth, depth)

        if depth >= config.queue_limit:
            shed(spec, "queue_full")
            continue

        start = max(now, server_free_at)
        mode = MODE_DEGRADED if depth >= config.degrade_depth else MODE_FULL
        if start + config.service_vms(mode) > now + config.deadline_vms:
            mode = MODE_DEGRADED  # deadline-driven degrade as a last resort
        if start + config.service_vms(mode) > now + config.deadline_vms:
            shed(spec, "deadline")
            continue

        if tokens < 1.0:
            shed(spec, "tokens")
            continue
        tokens -= 1.0
        tokens_consumed += 1

        service = config.service_vms(mode)
        finish = start + service
        outcome = OUTCOME_SERVED if mode == MODE_FULL else OUTCOME_DEGRADED
        counts[outcome] += 1
        plans.append(
            SessionPlan(
                session_id=spec.session_id,
                arrival_vms=now,
                outcome=outcome,
                start_vms=round(start, 6),
                service_vms=round(service, 6),
                finish_vms=round(finish, 6),
            )
        )
        server_free_at = finish
        in_flight.append(finish)
        makespan = max(makespan, finish)

    schedule = FleetSchedule(
        plans=plans,
        offered=len(specs),
        served=counts[OUTCOME_SERVED],
        degraded=counts[OUTCOME_DEGRADED],
        shed=sum(shed_reasons.values()),
        shed_reasons=shed_reasons,
        tokens_consumed=tokens_consumed,
        makespan_vms=round(makespan, 6),
        peak_queue_depth=peak_depth,
    )
    obs.counter_add("service.sessions_offered", schedule.offered)
    obs.counter_add("service.sessions_admitted", schedule.admitted)
    obs.counter_add("service.sessions_shed", schedule.shed)
    obs.gauge_max("service.peak_queue_depth", schedule.peak_queue_depth)
    return schedule
