"""Crash-safe cell sweeps: the one cell store all study families share.

``repro resilience``, ``serve``, ``faultstudy`` and ``abrstudy`` each
sweep a grid of cells, every cell a pure function of its coordinates.
This module owns how a sweep is persisted.  A run directory holds:

- ``cells/<cell_id>.json`` -- the record as canonical JSON plus a
  ``digest`` of those bytes, published atomically, so a killed run
  leaves only whole cells behind;
- ``cells/<cell_id>.attempt`` -- the attempt counter, also atomic;
  ``REPRO_CHAOS`` draws vary per attempt, so a retry is not struck again
  by the same fault;
- ``telemetry/wall.json`` -- the never-diffed wall-clock sidecar, whose
  rows are merged by ``cell_id`` across resumes;
- ``summary.json`` and, where the family renders one, ``table.txt``.

The second half is the command-line scaffold the study CLIs share: the
run-directory options, and the report and exit code after a sweep.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Callable, Iterable

from repro.core.runner.chaos import POINT_WORKER_CELL, strike_from_env
from repro.ioutil import atomic_write, sha256_hex
from repro.obs.schema import SCHEMA_SERVICE_WALL, validate_service_wall

__all__ = [
    "add_run_options",
    "canonical",
    "cell_path",
    "finish_run",
    "load_cell",
    "load_records",
    "next_attempt",
    "run_dir_for",
    "run_grid",
]


def canonical(record: dict) -> str:
    """The byte form every published artifact is written in."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def cell_path(run_dir: Path, cell_id: str) -> Path:
    return Path(run_dir) / "cells" / f"{cell_id}.json"


def load_cell(run_dir: Path, cell_id: str) -> dict | None:
    """A published cell record, or None if it is absent or corrupt."""
    try:
        payload = json.loads(cell_path(run_dir, cell_id).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    digest = payload.pop("digest", None)
    if digest != sha256_hex(canonical(payload).encode("utf-8")):
        return None
    return payload


def load_records(run_dir: Path, cells: Iterable, missing: list) -> list:
    """Published records of ``cells``; ids of absent ones go to ``missing``."""
    records = []
    for cell in cells:
        record = load_cell(run_dir, cell.cell_id)
        if record is None:
            missing.append(cell.cell_id)
        else:
            records.append(record)
    return records


def next_attempt(run_dir: Path, cell_id: str) -> int:
    """Bump and persist the cell's attempt counter; returns the new value."""
    marker = Path(run_dir) / "cells" / f"{cell_id}.attempt"
    try:
        attempt = int(marker.read_text()) + 1
    except (OSError, ValueError):
        attempt = 1
    atomic_write(marker, str(attempt))
    return attempt


def _merge_wall(run_dir: Path, rows: list[dict]) -> None:
    """Publish ``rows`` into the wall sidecar, keeping valid older rows."""
    path = run_dir / "telemetry" / "wall.json"
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    merged = {}
    if (
        isinstance(previous, dict)
        and previous.get("schema") == SCHEMA_SERVICE_WALL
        and not validate_service_wall(previous)
    ):
        merged = {row["cell_id"]: row for row in previous["cells"]}
    merged.update((row["cell_id"], row) for row in rows)
    atomic_write(path, canonical({"schema": SCHEMA_SERVICE_WALL, "version": 1,
                                  "cells": list(merged.values())}))


def run_grid(
    run_dir: str | Path,
    cells: Iterable,
    run_cell: Callable[[object], tuple[dict, dict | None]],
    summarize: Callable[[], dict],
    render: Callable[[dict], str] | None = None,
    *,
    label: str = "",
    resume: bool = False,
) -> dict:
    """Run (or finish) a sweep over ``cells``; returns the summary dict.

    ``run_cell(cell)`` returns the record to publish and a wall-clock
    row (or None).  Chaos strikes each attempt under the key
    ``<label><cell_id>/a<attempt>``.  ``summarize()`` builds the summary
    from the published cells; ``render(summary)`` gives ``table.txt``.
    The returned summary also counts the reused cells in
    ``skipped_cells``.
    """
    run_dir = Path(run_dir)
    skipped = 0
    wall_rows = []
    for cell in cells:
        cell_id = cell.cell_id
        if resume and load_cell(run_dir, cell_id) is not None:
            skipped += 1
            continue
        attempt = next_attempt(run_dir, cell_id)
        # Chaos kill/spin drills strike here, exactly like study workers.
        strike_from_env(POINT_WORKER_CELL, f"{label}{cell_id}/a{attempt}")
        record, wall = run_cell(cell)
        record["digest"] = sha256_hex(canonical(record).encode("utf-8"))
        atomic_write(cell_path(run_dir, cell_id), canonical(record))
        if wall is not None:
            wall_rows.append(wall)
    if wall_rows:
        _merge_wall(run_dir, wall_rows)
    summary = summarize()
    atomic_write(run_dir / "summary.json", canonical(summary))
    if render is not None:
        atomic_write(run_dir / "table.txt", render(summary) + "\n")
    summary["skipped_cells"] = skipped
    return summary


# -- command-line scaffold ---------------------------------------------------


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The run-directory options every study CLI takes."""
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="runs root (default: $REPRO_RUNS or .repro-runs)")
    parser.add_argument("--run-id", default="default", metavar="ID",
                        help="run directory name (default: 'default')")
    parser.add_argument("--resume", default=None, metavar="ID",
                        help="resume a run: published cells are kept, "
                             "missing/corrupt ones recompute")
    parser.add_argument("--verify-complete", action="store_true",
                        help="exit 1 unless every grid cell is published")


def run_dir_for(args: argparse.Namespace, study: str) -> Path:
    """The run directory named by ``--runs-dir``/``--run-id``/``--resume``."""
    if args.runs_dir:
        root = Path(args.runs_dir)
    else:
        root = Path(os.environ.get("REPRO_RUNS", ".repro-runs")) / study
    return root / (args.resume or args.run_id)


def _export_telemetry(run_dir: Path) -> None:
    """When REPRO_OBS is on, publish the run's spans and metrics."""
    from repro import obs

    if not obs.enabled():
        return
    from repro.obs.export import export_metrics_json, export_spans_jsonl

    telemetry = run_dir / "telemetry"
    export_spans_jsonl(telemetry / "trace.jsonl", obs.tracer().drain())
    export_metrics_json(telemetry / "metrics.json", obs.registry().snapshot())
    print(f"telemetry: {telemetry}")


def finish_run(args: argparse.Namespace, run_dir: Path, summary: dict,
               title: str, n_cells: int, table: str, detail: str = "",
               telemetry: bool = False) -> int:
    """Print the post-sweep report; returns the CLI exit code.

    ``telemetry`` exports the run's spans and metrics when ``REPRO_OBS``
    is on.  The exit code is 1 only when ``--verify-complete`` was given
    and some grid cell is missing.
    """
    verb = "resumed" if args.resume else "ran"
    print(f"{verb} {title} '{args.resume or args.run_id}': {n_cells} cells "
          f"published ({summary['skipped_cells']} reused{detail})")
    print()
    print(table)
    print()
    print(f"artifacts: {run_dir}")
    if telemetry:
        _export_telemetry(run_dir)
    if summary["missing_cells"]:
        print(f"missing cells: {', '.join(summary['missing_cells'])}")
        if args.verify_complete:
            print("verify-complete FAILED")
            return 1
    elif args.verify_complete:
        print("verify-complete passed: every grid cell is published")
    return 0
