"""Lightweight schema validation for exported telemetry artifacts.

CI's obs-smoke job (and ``tests/obs/``) validate every exported trace
and metrics file against these checks before uploading it as a build
artifact -- a regression in the export format fails loudly instead of
producing Perfetto-unloadable traces.  Hand-rolled on purpose: the
container has no jsonschema dependency, and the formats are small.

Each validator returns a list of human-readable problems (empty = valid).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.export import SCHEMA_METRICS, SCHEMA_TRACE, SCHEMA_VERSION

__all__ = [
    "validate_trace_jsonl",
    "validate_chrome_trace",
    "validate_metrics_json",
    "validate_part",
    "validate_service_wall",
    "validate_study_summary",
    "validate_file",
]

SCHEMA_PART = f"{SCHEMA_TRACE}-part"
#: Wall-clock sidecar of the streaming-service study: deliberately
#: separate from the deterministic study artifacts, but still schema-
#: gated before CI uploads it.
SCHEMA_SERVICE_WALL = "repro-service-wall"
#: Fault-study summary: the availability-vs-intensity table CI gates.
SCHEMA_FAULTSTUDY = "repro-faultstudy"
#: ABR-study summary: the quality-vs-provisioned-bandwidth table.
SCHEMA_ABRSTUDY = "repro-abrstudy"


#: Study summaries, keyed by ``schema``: the grid keys, the row labels
#: (strings), the non-negative row numbers, those of them that are
#: ratios in [0, 1], row numbers that must be positive, and the outcome
#: buckets -- ``offered`` first, then the conservation-law terms that
#: must sum to it.
_STUDY_TABLES = {
    SCHEMA_FAULTSTUDY: {
        "grid": ("ns", "seeds", "intensities", "policies"),
        "labels": ("policy",),
        "numbers": ("intensity", "availability", "mttr_vms",
                    "retry_amplification", "mean_psnr_db", "p99_latency_vms"),
        "unit": ("intensity", "availability"),
        "positive": (),
        "outcomes": ("offered", "served", "served_retry", "degraded", "shed",
                     "quarantined"),
    },
    SCHEMA_ABRSTUDY: {
        "grid": ("ns", "seeds", "bandwidths_kbps", "profiles", "policies"),
        "labels": ("profile", "policy"),
        "numbers": ("availability", "rebuffer_ratio", "switch_rate",
                    "mean_rung", "mean_psnr_db"),
        "unit": ("availability", "rebuffer_ratio"),
        "positive": ("bandwidth_kbps",),
        "outcomes": ("offered", "served", "served_retry", "degraded",
                     "switched_down", "rebuffered", "shed", "quarantined"),
    },
}

_SPAN_REQUIRED = {"name": str, "id": str, "t0_ns": int, "dur_ns": int}


def _check_meta(meta: dict, schema: str, where: str) -> list[str]:
    problems = []
    if meta.get("schema") != schema:
        problems.append(f"{where}: schema is {meta.get('schema')!r}, want {schema!r}")
    if meta.get("version") != SCHEMA_VERSION:
        problems.append(
            f"{where}: version is {meta.get('version')!r}, want {SCHEMA_VERSION}"
        )
    return problems


def _check_span(span: dict, where: str) -> list[str]:
    problems = []
    for key, kind in _SPAN_REQUIRED.items():
        if key not in span:
            problems.append(f"{where}: missing {key!r}")
        elif not isinstance(span[key], kind):
            problems.append(
                f"{where}: {key!r} is {type(span[key]).__name__}, want {kind.__name__}"
            )
    if isinstance(span.get("dur_ns"), int) and span["dur_ns"] < 0:
        problems.append(f"{where}: negative duration {span['dur_ns']}")
    parent = span.get("parent")
    if parent is not None and not isinstance(parent, str):
        problems.append(f"{where}: parent must be null or a span id")
    return problems


def validate_trace_jsonl(text: str) -> list[str]:
    """Validate the canonical JSONL span-trace format."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["trace is empty"]
    try:
        meta = json.loads(lines[0])
    except ValueError as error:
        return [f"line 1: not JSON ({error})"]
    problems = _check_meta(meta, SCHEMA_TRACE, "line 1")
    ids: set[str] = set()
    spans: list[dict] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            span = json.loads(line)
        except ValueError as error:
            problems.append(f"line {number}: not JSON ({error})")
            continue
        problems.extend(_check_span(span, f"line {number}"))
        if isinstance(span.get("id"), str):
            if span["id"] in ids:
                problems.append(f"line {number}: duplicate span id {span['id']!r}")
            ids.add(span["id"])
        spans.append(span)
    for number, span in enumerate(spans, start=2):
        parent = span.get("parent")
        if isinstance(parent, str) and parent not in ids:
            # A parent evicted from the ring buffer is legal; a parent
            # that *postdates* its child's id-space is not checkable
            # cheaply, so only flag self-parenting.
            if parent == span.get("id"):
                problems.append(f"line {number}: span is its own parent")
    return problems


def validate_chrome_trace(obj: dict) -> list[str]:
    """Validate the Chrome trace-event export (what Perfetto loads)."""
    problems = []
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    problems.extend(
        _check_meta(obj.get("otherData", {}), SCHEMA_TRACE, "otherData")
    )
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: {key!r} must be a number")
                elif value < 0:
                    problems.append(f"{where}: {key!r} is negative")
    return problems


def validate_metrics_json(obj: dict) -> list[str]:
    """Validate an exported metrics snapshot."""
    problems = _check_meta(obj, SCHEMA_METRICS, "metrics")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics body missing"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            problems.append(f"metrics.{section} missing or not an object")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"counter {name!r} must be a non-negative number")
    for name, body in metrics.get("histograms", {}).items():
        if not isinstance(body, dict):
            problems.append(f"histogram {name!r} is not an object")
            continue
        for key in ("buckets", "counts", "total", "sum"):
            if key not in body:
                problems.append(f"histogram {name!r}: missing {key!r}")
        if len(body.get("buckets", [])) != len(body.get("counts", [])):
            problems.append(f"histogram {name!r}: buckets/counts length mismatch")
    return problems


def validate_part(obj: dict) -> list[str]:
    """Validate one worker's spool part file."""
    problems = _check_meta(obj, SCHEMA_PART, "part")
    if not isinstance(obj.get("label"), str):
        problems.append("part: label missing or not a string")
    spans = obj.get("spans")
    if not isinstance(spans, list):
        return problems + ["part: spans missing or not a list"]
    ids: set[str] = set()
    for index, span in enumerate(spans):
        where = f"spans[{index}]"
        if not isinstance(span, dict):
            problems.append(f"{where}: not an object")
            continue
        problems.extend(_check_span(span, where))
        if isinstance(span.get("id"), str):
            if span["id"] in ids:
                problems.append(f"{where}: duplicate span id {span['id']!r}")
            ids.add(span["id"])
    if not isinstance(obj.get("metrics"), dict):
        problems.append("part: metrics missing or not an object")
    return problems


def validate_service_wall(obj: dict) -> list[str]:
    """Validate the serve study's wall-clock telemetry sidecar."""
    problems = []
    if obj.get("version") != 1:
        problems.append(f"wall: version is {obj.get('version')!r}, want 1")
    cells = obj.get("cells")
    if not isinstance(cells, list) or not cells:
        return problems + ["wall: cells missing or empty"]
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(cell.get("cell_id"), str):
            problems.append(f"{where}: cell_id missing or not a string")
        for key in ("wall_s", "sessions_per_wall_sec"):
            value = cell.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: {key!r} must be a non-negative number")
    return problems


def validate_study_summary(obj: dict, schema: str) -> list[str]:
    """Validate a ``repro faultstudy`` / ``repro abrstudy`` summary.

    Beyond shape checks this enforces the study's *conservation law* on
    every row -- its outcome buckets must sum to ``offered`` -- and that
    ratios such as availability stay in [0, 1].  A summary that leaks
    sessions fails the CI gate, not just the tests.
    """
    table = _STUDY_TABLES[schema]
    prefix = schema.removeprefix("repro-")
    problems = []
    if obj.get("schema") != schema:
        problems.append(
            f"{prefix}: schema is {obj.get('schema')!r}, want {schema!r}"
        )
    if obj.get("version") != 1:
        problems.append(f"{prefix}: version is {obj.get('version')!r}, want 1")
    grid = obj.get("grid")
    if not isinstance(grid, dict):
        problems.append(f"{prefix}: grid missing or not an object")
    else:
        for key in table["grid"]:
            if not isinstance(grid.get(key), list) or not grid[key]:
                problems.append(f"{prefix}: grid.{key} missing or empty")
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows:
        return problems + [f"{prefix}: rows missing or empty"]
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in table["labels"]:
            if not isinstance(row.get(key), str):
                problems.append(f"{where}: {key} missing or not a string")
        for key in table["positive"]:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{where}: {key} must be positive")
        for key in table["numbers"]:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: {key!r} must be a non-negative number")
            elif key in table["unit"] and value > 1:
                problems.append(f"{where}: {key} {value} exceeds 1")
        outcomes = row.get("outcomes")
        if not isinstance(outcomes, dict):
            problems.append(f"{where}: outcomes missing or not an object")
            continue
        bad_bucket = False
        for key in table["outcomes"]:
            value = outcomes.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{where}: outcomes.{key} must be a non-negative integer"
                )
                bad_bucket = True
        if not bad_bucket:
            accounted = sum(outcomes[key] for key in table["outcomes"][1:])
            if accounted != outcomes["offered"]:
                problems.append(
                    f"{where}: conservation violated "
                    f"({accounted} accounted vs {outcomes['offered']} offered)"
                )
    if not isinstance(obj.get("missing_cells"), list):
        problems.append(f"{prefix}: missing_cells missing or not a list")
    return problems


def validate_file(path: str | Path) -> list[str]:
    """Dispatch on file shape: JSONL trace, Chrome trace, or metrics."""
    path = Path(path)
    text = path.read_text()
    try:
        obj = json.loads(text)
    except ValueError:
        # Not one JSON document: the line-oriented JSONL trace format.
        return validate_trace_jsonl(text)
    if not isinstance(obj, dict):
        return [f"{path.name}: unrecognized JSON telemetry artifact"]
    if "traceEvents" in obj:
        return validate_chrome_trace(obj)
    if obj.get("schema") == SCHEMA_METRICS:
        return validate_metrics_json(obj)
    if obj.get("schema") == SCHEMA_PART:
        return validate_part(obj)
    if obj.get("schema") == SCHEMA_SERVICE_WALL:
        return validate_service_wall(obj)
    if obj.get("schema") in _STUDY_TABLES:
        return validate_study_summary(obj, obj["schema"])
    if obj.get("schema") == SCHEMA_TRACE:
        # A single-line (meta-only) JSONL trace parses as one document.
        return validate_trace_jsonl(text)
    return [f"{path.name}: unrecognized JSON telemetry artifact"]
