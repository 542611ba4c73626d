"""Overhead benchmark for the supervised study runner.

Times the crash-safe orchestration stack (supervised pool + the JSON
cell store of :mod:`repro.core.sweep`, with its digest-verified,
read-back publishes) on the ``tiny`` grid against the same cells
executed inline, and snapshots the per-cell attempt/latency rows of the
run's ``telemetry/attempts.json``.  Results go to ``BENCH_runner.json``
at the repository root.

Run standalone (writes the JSON unconditionally)::

    PYTHONPATH=src python benchmarks/test_perf_runner.py

or as a pytest perf smoke (asserts supervision overhead stays sane)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_runner.py -q
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.runner.orchestrator import (
    GRIDS,
    execute_cell,
    load_telemetry,
    run_study,
)
from repro.ioutil import atomic_write

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_runner.json"

GRID = "tiny"
SCALE = "quick"


def time_inline() -> float:
    """The same cells, executed in-process with no supervision at all."""
    from dataclasses import asdict

    start = time.perf_counter()
    for cell in GRIDS[GRID]:
        execute_cell(asdict(cell), SCALE)
    return time.perf_counter() - start


def time_supervised() -> tuple[float, float, dict]:
    """One supervised run plus its resume, and the run's telemetry."""
    with tempfile.TemporaryDirectory(prefix="bench-runner-") as run_dir:
        start = time.perf_counter()
        outcome = run_study(run_dir, grid=GRID, scale=SCALE, jobs=1)
        supervised_seconds = time.perf_counter() - start
        telemetry = load_telemetry(run_dir)
        start = time.perf_counter()
        resumed = run_study(run_dir, resume=True)
        resume_seconds = time.perf_counter() - start
        assert not outcome["missing_cells"] and not resumed["missing_cells"]
        return supervised_seconds, resume_seconds, telemetry


def run_benchmark() -> dict:
    from repro.provenance import run_metadata

    inline_seconds = time_inline()
    supervised_seconds, resume_seconds, telemetry = time_supervised()
    return {
        "grid": GRID,
        "scale": SCALE,
        "inline_seconds": round(inline_seconds, 4),
        "supervised_seconds": round(supervised_seconds, 4),
        "resume_noop_seconds": round(resume_seconds, 4),
        "supervision_overhead_seconds": round(
            supervised_seconds - inline_seconds, 4
        ),
        "cells": {
            cell_id: {
                "attempts": cell["attempts"],
                "outcome": cell["outcome"],
                "total_s": cell["total_s"],
                "final_attempt_s": cell["final_attempt_s"],
                "retry_overhead_s": cell["retry_overhead_s"],
            }
            for cell_id, cell in telemetry["cells"].items()
        },
        "totals": telemetry["totals"],
        "metadata": run_metadata(),
    }


def write_results(results: dict) -> None:
    atomic_write(RESULT_PATH, json.dumps(results, indent=2) + "\n")


@pytest.fixture(scope="module")
def bench_results():
    results = run_benchmark()
    write_results(results)
    return results


def test_every_cell_single_attempt_clean(bench_results):
    """No chaos armed: every cell must succeed on its first attempt."""
    for cell_id, cell in bench_results["cells"].items():
        assert cell["attempts"] == 1, (cell_id, cell)
        assert cell["outcome"] == "done", (cell_id, cell)
        assert cell["retry_overhead_s"] == 0.0, (cell_id, cell)


def test_resume_is_near_free(bench_results):
    """Resuming a finished run re-executes nothing, so it must cost far
    less than the run itself."""
    assert (
        bench_results["resume_noop_seconds"]
        < max(0.5, bench_results["supervised_seconds"])
    ), bench_results


def test_supervision_overhead_bounded(bench_results):
    """Worker spawn + heartbeat + cell-store I/O must stay a small constant
    (seconds, not minutes) on top of the inline pipeline."""
    assert bench_results["supervision_overhead_seconds"] < 10.0, bench_results


def main() -> int:
    results = run_benchmark()
    write_results(results)
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
