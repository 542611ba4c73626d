"""Statistics the benchmark derives from the spans of a traced run.

The traced run wraps each call into a layer of the program in a span of
the program's own :class:`repro.obs.spans.SpanTracer`, created by the
benchmark (so the program's ``obs.span`` calls stay off).  A span's name
is ``<layer>.<what>``; its ``proc`` label is the run id; counts recorded
at the same boundary go in its ``attrs``.
"""

from __future__ import annotations

import math

from repro.obs.report import aggregate_stages


def durations_s(records, name: str) -> list[float]:
    """Durations of the spans called ``name``, in the order they ended."""
    return [record.dur_ns / 1e9 for record in records if record.name == name]


def total_s(records, name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(durations_s(records, name))


def count(records, key: str) -> int:
    """Sum of one count over every span that recorded it."""
    return sum(record.attrs.get(key, 0) for record in records)


def layer_self_s(records) -> dict[str, float]:
    """Self time per layer: the self time of every span, summed by the
    name's first component."""
    totals: dict[str, float] = {}
    for row in aggregate_stages(records):
        layer = row.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + row.self_ns / 1e9
    return totals


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]
