"""Crash-safe cell sweeps: the one cell store every study family shares.

``repro study`` (the paper's tables), ``resilience``, ``serve``,
``faultstudy`` and ``abrstudy`` each sweep a grid of cells, every cell a
pure function of its coordinates.  This module owns how a sweep is
persisted.  A run directory holds:

- ``cells/<cell_id>.json`` -- the record as canonical JSON plus a
  ``digest`` of those bytes, written by :func:`publish`: an atomic write
  at the ``store.write`` chaos point, then a read-back that must match,
  retried a bounded number of times, so a killed run or a torn write
  leaves only whole cells behind;
- ``cells/<cell_id>.attempt`` -- the attempt counter of
  :func:`run_grid`, also atomic; ``REPRO_CHAOS`` draws vary per attempt,
  so a retry is not struck again by the same fault;
- ``telemetry/`` -- never-diffed sidecars: ``wall.json`` (wall-clock
  rows merged by ``cell_id`` across resumes) for the service studies,
  ``attempts.json`` (attempt history) for ``repro study``;
- ``summary.json`` and, where the family renders one, ``table.txt``.

``repro study`` adds ``run.json`` (its grid, scale and cell ids,
published like a cell) and ``artifacts/``; see
:mod:`repro.core.runner.orchestrator`.  No pickles: every record is
plain JSON, and JSON round-trips Python floats exactly.

The second half is the command-line scaffold the study CLIs share: the
runs root, the run-directory options, and the report and exit code after
a sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterable

from repro.core.runner.chaos import (
    POINT_STORE_WRITE,
    POINT_WORKER_CELL,
    strike_from_env,
)
from repro.ioutil import atomic_write, sha256_hex
from repro.obs.schema import SCHEMA_SERVICE_WALL, validate_service_wall

__all__ = [
    "PUBLISH_TRIES",
    "StoreError",
    "add_run_options",
    "canonical",
    "cell_path",
    "finish_run",
    "load_cell",
    "load_record",
    "load_records",
    "next_attempt",
    "publish",
    "run_dir_for",
    "run_grid",
    "runs_root",
]


class StoreError(RuntimeError):
    """A record could not be published intact within its write budget."""


def canonical(record: dict) -> str:
    """The byte form every published artifact is written in."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def cell_path(run_dir: Path, cell_id: str) -> Path:
    return Path(run_dir) / "cells" / f"{cell_id}.json"


#: Atomic writes :func:`publish` tries before it gives up.
PUBLISH_TRIES = 3


def publish(path: Path, record: dict, key: str) -> None:
    """Publish ``record`` plus its digest at ``path`` and read it back.

    Each try is one atomic write at :data:`POINT_STORE_WRITE` under the
    chaos key ``<key>/t<try>``; it counts only if the file then reads
    back byte for byte.  Transient I/O errors and torn writes are
    retried; after :data:`PUBLISH_TRIES` failures :class:`StoreError` is
    raised, and whatever is on disk fails its digest, so readers treat
    the record as absent.
    """
    body = canonical(record)
    text = canonical({**record, "digest": sha256_hex(body.encode("utf-8"))})
    problem = ""
    for attempt in range(1, PUBLISH_TRIES + 1):
        try:
            atomic_write(path, text, chaos_point=POINT_STORE_WRITE,
                         chaos_key=f"{key}/t{attempt}")
            if Path(path).read_text() == text:
                return
            problem = "read-back differs from the written record"
        except (OSError, UnicodeDecodeError) as error:
            problem = str(error)
    raise StoreError(
        f"{path} not published after {PUBLISH_TRIES} tries: {problem}"
    )


def load_record(path: Path) -> dict | None:
    """A published record, or None if it is absent or fails its digest."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    digest = payload.pop("digest", None)
    if digest != sha256_hex(canonical(payload).encode("utf-8")):
        return None
    return payload


def load_cell(run_dir: Path, cell_id: str) -> dict | None:
    """A published cell record, or None if it is absent or corrupt."""
    return load_record(cell_path(run_dir, cell_id))


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
    ``<label><cell_id>/a<attempt>``, which also keys the publish.  A
    cell that cannot be published is reported on stderr and left
    missing.  ``summarize()`` builds the summary from the published
    cells; ``render(summary)`` gives ``table.txt``.  The returned summary
    also counts the reused cells in ``skipped_cells``.
    """
    run_dir = Path(run_dir)
    skipped = 0
    wall_rows = []
    for cell in cells:
        cell_id = cell.cell_id
        if resume and load_cell(run_dir, cell_id) is not None:
            skipped += 1
            continue
        key = f"{label}{cell_id}/a{next_attempt(run_dir, cell_id)}"
        # Chaos kill/spin drills strike here, exactly like study workers.
        strike_from_env(POINT_WORKER_CELL, key)
        record, wall = run_cell(cell)
        try:
            publish(cell_path(run_dir, cell_id), record, key)
        except StoreError as error:
            print(f"warning: {error}; left for --resume", file=sys.stderr)
            continue
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


def runs_root(runs_dir: str | None, study: str) -> Path:
    """Where ``study`` keeps its runs: ``--runs-dir``, else
    ``$REPRO_RUNS/<study>``; an unset or empty ``REPRO_RUNS`` means
    ``.repro-runs``."""
    if runs_dir:
        return Path(runs_dir)
    return Path(os.environ.get("REPRO_RUNS") or ".repro-runs") / study


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The run-directory options every study CLI takes."""
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="runs root (default: $REPRO_RUNS/<study>, "
                             "else .repro-runs/<study>)")
    parser.add_argument("--run-id", default="default", metavar="ID",
                        help="run directory name (default: 'default')")
    parser.add_argument("--resume", default=None, metavar="ID",
                        help="resume a run: published cells are kept, "
                             "missing/corrupt ones recompute")
    parser.add_argument("--verify-complete", action="store_true",
                        help="exit 1 unless every grid cell is published")


def run_dir_for(args: argparse.Namespace, study: str) -> Path:
    """The run directory named by ``--runs-dir``/``--run-id``/``--resume``."""
    return runs_root(args.runs_dir, study) / (args.resume or args.run_id)


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
