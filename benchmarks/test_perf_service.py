"""Throughput baseline for the streaming-service multiplexer.

Times the canonical 32-session smoke cell (the CI `service-smoke` cell)
through each execution backend and snapshots wall-clock throughput plus
the cell's deterministic outcome mix, and measures the fault/recovery
control plane's overhead with faults disabled (the acceptance guard:
under 2% of the cell's service wall time).  Results go to
``BENCH_service.json`` at the repository root.

Run standalone (writes the JSON unconditionally)::

    PYTHONPATH=src python benchmarks/test_perf_service.py

or as a pytest perf smoke (asserts the service layer stays fast and the
backends agree)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_service.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ioutil import atomic_write
from repro.service.study import (
    FAULT_SMOKE_N,
    SMOKE_NS,
    FaultCell,
    ServeCell,
    run_cell,
    run_fault_cell,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_service.json"

N_SESSIONS = SMOKE_NS[0]
SEED = 4
BACKENDS = (("serial", 1), ("fleet", 2))

#: Acceptance guard: the recovery plane with faults disabled must cost
#: under this fraction of the cell's service wall time...
OVERHEAD_BUDGET = 0.02
#: ...with an absolute floor so a sub-100ms cell can't flake the ratio.
OVERHEAD_FLOOR_S = 0.005


def measure_faultstudy_overhead() -> dict:
    """Recovery-plane cost at intensity 0 (the ``repro serve`` path)."""
    from repro.service.session import reset_encode_cache

    reset_encode_cache()
    record, wall = run_fault_cell(FaultCell(FAULT_SMOKE_N, SEED, 0.0, "full"))
    ratio = wall["recovery_wall_s"] / wall["wall_s"] if wall["wall_s"] else 0.0
    return {
        "cell": record["cell_id"],
        "wall_s": wall["wall_s"],
        "recovery_wall_s": wall["recovery_wall_s"],
        "overhead_ratio": round(ratio, 6),
        "budget_ratio": OVERHEAD_BUDGET,
        "availability": record["recovery"]["availability"],
    }


def run_benchmark() -> dict:
    from repro.provenance import run_metadata
    from repro.service.session import reset_encode_cache

    cell = ServeCell(N_SESSIONS, SEED)
    backends = {}
    records = {}
    for backend, jobs in BACKENDS:
        reset_encode_cache()  # every backend pays its own encode warm-up
        record, wall = run_cell(cell, backend=backend, jobs=jobs)
        records[backend] = record
        backends[backend] = {
            "jobs": jobs,
            "wall_s": wall["wall_s"],
            "sessions_per_wall_sec": wall["sessions_per_wall_sec"],
        }
    reference = records["serial"]
    return {
        "cell": cell.cell_id,
        "n_sessions": N_SESSIONS,
        "seed": SEED,
        "backends": backends,
        "outcomes": reference["outcomes"],
        "latency_vms": reference["latency_vms"],
        "mean_psnr_db": reference["quality"]["mean_psnr_db"],
        "fleet_digest": reference["fleet_digest"],
        "backends_agree": all(
            record == reference for record in records.values()
        ),
        "faultstudy_overhead": measure_faultstudy_overhead(),
        "metadata": run_metadata(),
    }


def write_results(results: dict) -> None:
    """Merge these keys into the shared service benchmark file, keeping
    sections other benchmarks own (``test_perf_abr.py`` writes ``abr``)."""
    try:
        merged = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(results)
    atomic_write(RESULT_PATH, json.dumps(merged, indent=2) + "\n")


@pytest.fixture(scope="module")
def bench_results():
    results = run_benchmark()
    write_results(results)
    return results


def test_backends_bit_identical(bench_results):
    """The determinism headline: every backend produced the same record."""
    assert bench_results["backends_agree"] is True


def test_smoke_cell_throughput_floor(bench_results):
    """The smoke cell must stay interactive on every backend -- a lost
    encode cache or accidental quadratic pass shows up as seconds."""
    for backend, numbers in bench_results["backends"].items():
        assert numbers["wall_s"] < 30.0, (backend, numbers)
        assert numbers["sessions_per_wall_sec"] > 1.0, (backend, numbers)


def test_smoke_cell_outcomes_pinned(bench_results):
    """The published baseline describes an uncontended smoke cell."""
    outcomes = bench_results["outcomes"]
    assert outcomes["offered"] == N_SESSIONS
    assert outcomes["served"] + outcomes["degraded"] + outcomes["shed"] \
        == N_SESSIONS
    assert bench_results["mean_psnr_db"] > 20.0


def test_faultstudy_overhead_under_budget(bench_results):
    """ISSUE acceptance: with faults disabled the recovery control plane
    costs under 2% of the cell's service wall time (absolute floor keeps
    sub-100ms cells from flaking the ratio)."""
    overhead = bench_results["faultstudy_overhead"]
    budget = max(OVERHEAD_BUDGET * overhead["wall_s"], OVERHEAD_FLOOR_S)
    assert overhead["recovery_wall_s"] < budget, overhead
    assert overhead["availability"] == 1.0  # intensity 0: nothing lost


def main() -> int:
    results = run_benchmark()
    write_results(results)
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
