"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One facade over every number the repo's subsystems already produce --
memsim hierarchy counters, supervisor heartbeat/RSS/retry telemetry,
trace-cache hit/miss accounting -- plus anything new the instrumentation
hooks emit.  The registry is deliberately primitive: three metric kinds,
name-keyed, no label cardinality explosions, and a plain-dict
``snapshot()`` that serializes to JSON for export next to the span trace.

Histograms use fixed bucket boundaries so percentile estimates are
deterministic and mergeable across processes: ``observe()`` increments
the first bucket whose upper bound holds the value, and
``percentile(p)`` interpolates inside that bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import fields as dataclass_fields

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram boundaries: roughly log-spaced from 1 ms to ~17 min,
#: in seconds -- sized for task/stage durations, the dominant use.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (RSS bytes, queue depth, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the high-water mark (peak-RSS style gauges)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles."""

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum", "min", "max")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` in [0, 100].

        Interpolates linearly inside the containing bucket; overflow
        observations report the top boundary (a known floor).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        seen = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if seen + count >= rank and count > 0:
                inside = max(rank - seen, 0.0)
                return lower + (bound - lower) * (inside / count)
            seen += count
            lower = bound
        return self.bounds[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "total": self.total,
            "sum": self.sum,
            "min": self.min if self.total else 0.0,
            "max": self.max if self.total else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Name-keyed store of counters/gauges/histograms with one snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- metric accessors (create on first use) -----------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
            return metric

    # -- absorption facades --------------------------------------------------

    def absorb_hierarchy(self, hierarchy, prefix: str = "memsim") -> None:
        """Publish a simulated hierarchy's counters (totals + per phase).

        ``hierarchy`` is a :class:`repro.memsim.hierarchy.MemoryHierarchy`
        (or anything with ``.total`` and ``.phases`` of HierarchyCounters);
        every integer field becomes ``<prefix>.<field>`` and each phase
        scope ``<prefix>.phase.<phase>.<field>``.
        """
        self._absorb_counters(hierarchy.total, prefix)
        for phase, counters in sorted(hierarchy.phases.items()):
            self._absorb_counters(counters, f"{prefix}.phase.{phase}")

    def _absorb_counters(self, counters, prefix: str) -> None:
        for field in dataclass_fields(counters):
            value = getattr(counters, field.name)
            if isinstance(value, int):
                gauge = self.gauge(f"{prefix}.{field.name}")
                gauge.set(value)

    def absorb_study_telemetry(self, telemetry: dict) -> None:
        """Publish one study run's supervisor telemetry (the shape of
        its ``telemetry/attempts.json``) through the registry."""
        totals = telemetry.get("totals", {})
        for key in ("cells", "done", "quarantined", "pending", "attempts"):
            if key in totals:
                self.gauge(f"runner.study.{key}").set(totals[key])
        if "retry_overhead_s" in totals:
            self.gauge("runner.study.retry_overhead_s").set(
                totals["retry_overhead_s"]
            )
        if "wall_s" in telemetry:
            self.gauge("runner.study.wall_s").set(telemetry["wall_s"])
        attempt_hist = self.histogram("runner.cell.attempt_s")
        rss = self.gauge("runner.cell.rss_peak_bytes")
        for cell in telemetry.get("cells", {}).values():
            if cell.get("final_attempt_s"):
                attempt_hist.observe(cell["final_attempt_s"])
            rss.max(cell.get("rss_peak_bytes", 0))

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every registered metric."""
        with self._lock:
            return {
                "counters": {
                    name: metric.value
                    for name, metric in sorted(self._counters.items())
                },
                "gauges": {
                    name: metric.value
                    for name, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    name: metric.to_dict()
                    for name, metric in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another process's snapshot into this registry.

        Counters and histogram bucket counts add; gauges keep the max
        (the conservative choice for the peak-style gauges we record).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).max(value)
        for name, body in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(body["buckets"]))
            if list(hist.bounds) != list(body["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket mismatch during merge"
                )
            for index, count in enumerate(body["counts"]):
                hist.counts[index] += count
            hist.overflow += body["overflow"]
            hist.total += body["total"]
            hist.sum += body["sum"]
            if body["total"]:
                hist.min = min(hist.min, body["min"])
                hist.max = max(hist.max, body["max"])
