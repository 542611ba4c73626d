"""``repro study`` on the shared cell store: grids, resume, chaos sweeps.

This module is the conductor above :mod:`repro.core.study`: it maps the
paper's experimental grid onto supervised worker-pool tasks, publishes
every finished ``(workload, direction)`` cell through
:func:`repro.core.sweep.publish`, and renders the paper artifacts *from
the published cells* -- so a run killed halfway resumes with
``repro study --resume <run-id>`` and produces tables byte-identical to
an uninterrupted run, because both paths render from the same
digest-verified JSON records.  A run directory holds::

    run.json                  grid, scale, cell ids (published like a cell)
    cells/<cell_id>.json      a done cell: the MetricReport fields per
                              machine and phase, scale, footprint, counters
    telemetry/attempts.json   per-cell attempt history and timing, merged
                              across resumes
    summary.json              grid, scale, rendered artifacts, missing cells
    artifacts/<id>.txt        the paper tables and figures

A quarantined cell is never published; its attempt history lives only in
``telemetry/attempts.json``, and it reaches the tables through the
existing ``StudyCellError`` -> partial-table degradation path.

:func:`run_chaos_sweep` closes the loop: seeded chaos cases (worker
kills, freezes, spins, I/O errors, torn writes) over a micro-grid of
probe cells pushed through the same pool and store, asserting that every
injected fault is either retried to success or reported as a quarantined
cell -- never a silently wrong result.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.core.experiments import EXPERIMENTS, SCALES, current_scale
from repro.core.machines import STUDY_MACHINES
from repro.core.metrics import MetricReport
from repro.core.runner.chaos import CHAOS_ENV
from repro.core.runner.supervisor import (
    RetryPolicy,
    SupervisedPool,
    TaskOutcome,
    WorkerBudget,
)
from repro.core.study import (
    StudyCellError,
    StudyResult,
    Workload,
    characterize_decode,
    characterize_encode,
    default_jobs,
)
from repro.core.sweep import (
    StoreError,
    canonical,
    cell_path,
    load_cell,
    load_record,
    publish,
)
from repro.ioutil import atomic_write
from repro.memsim.hierarchy import HierarchyCounters
from repro.memsim.timing import Clock

#: Default per-cell wall-clock budget (seconds).
DEFAULT_CELL_BUDGET_S = 1800.0


@dataclass(frozen=True)
class CellSpec:
    """One orchestrated cell of the grid: a (workload, direction) pair."""

    direction: str  # "encode" | "decode"
    width: int
    height: int
    n_vos: int = 1
    n_layers: int = 1

    @property
    def cell_id(self) -> str:
        return (
            f"{self.direction}-{self.width}x{self.height}"
            f"-{self.n_vos}vo-{self.n_layers}l"
        )

    def workload(self, n_frames: int) -> Workload:
        return Workload(
            name=f"{self.width}x{self.height}-{self.n_vos}vo-{self.n_layers}l",
            width=self.width,
            height=self.height,
            n_vos=self.n_vos,
            n_layers=self.n_layers,
            n_frames=n_frames,
        )


def _table_cells() -> tuple[CellSpec, ...]:
    from repro.core.experiments import RESOLUTIONS

    cells = []
    for _, width, height in RESOLUTIONS:
        for n_vos, n_layers in ((1, 1), (3, 1), (3, 2)):
            for direction in ("encode", "decode"):
                cells.append(CellSpec(direction, width, height, n_vos, n_layers))
    return tuple(cells)


def _full_cells() -> tuple[CellSpec, ...]:
    from repro.core.experiments import HUGE_RESOLUTION

    _, width, height = HUGE_RESOLUTION
    return _table_cells() + (CellSpec("decode", width, height, 1, 1),)


GRIDS: dict[str, tuple[CellSpec, ...]] = {
    # Tables 2-8 plus Figures 3/4: the 12-cell core grid.
    "tables": _table_cells(),
    # The core grid plus Figure 2's "extremely large frames" decode point.
    "full": _full_cells(),
    # A minimal 2-cell grid for smoke tests and chaos drills.
    "tiny": (
        CellSpec("encode", 32, 32, 1, 1),
        CellSpec("decode", 32, 32, 1, 1),
    ),
}

#: Which paper artifacts each grid can regenerate from its cells.
GRID_EXPERIMENTS: dict[str, tuple[str, ...]] = {
    "tables": ("table1", "table2", "table3", "table4", "table5", "table6",
               "table7", "table8", "fig3", "fig4"),
    "full": tuple(sorted(EXPERIMENTS)),
    "tiny": (),
}


# -- cell records ------------------------------------------------------------


def cell_record(result: StudyResult) -> dict:
    """The JSON record of one characterized cell.

    Reports are lists in machine order, so the order the tables were
    built in never depends on the sorted keys of the canonical form.
    """
    return {
        "scale": result.scale,
        "footprint_bytes": result.footprint_bytes,
        "reports": [asdict(report) for report in result.reports.values()],
        "phase_reports": {
            phase: [asdict(report) for report in reports.values()]
            for phase, reports in result.phase_reports.items()
        },
        "counters": {
            label: asdict(counters)
            for label, counters in result.raw_counters.items()
        },
    }


def _reports(rows: list[dict]) -> dict[str, MetricReport]:
    return {row["machine"]: MetricReport(**row) for row in rows}


def study_result(cell: CellSpec, record: dict, n_frames: int) -> StudyResult:
    """Rebuild the :class:`StudyResult` a cell record was made from."""
    return StudyResult(
        workload=cell.workload(n_frames),
        direction=cell.direction,
        reports=_reports(record["reports"]),
        phase_reports={
            phase: _reports(rows)
            for phase, rows in record["phase_reports"].items()
        },
        scale=record["scale"],
        footprint_bytes=record["footprint_bytes"],
        raw_counters={
            label: HierarchyCounters(**{**fields, "clock": Clock(**fields["clock"])})
            for label, fields in record["counters"].items()
        },
    )


def execute_cell(cell_fields: dict, scale_name: str) -> dict:
    """Worker-side entry point: characterize one cell, return its record.

    Module-level (picklable) by design.  Replay parallelism inside the
    cell is pinned to 1 -- the orchestrator parallelizes across cells,
    and nested pools would fight over the same cores.  The encoded
    bitstreams are not part of the record: decode cells derive their
    own inputs deterministically, and tables never read them.
    """
    cell = CellSpec(**cell_fields)
    scale = SCALES[scale_name]
    workload = cell.workload(scale.n_frames)
    if cell.direction == "encode":
        result = characterize_encode(
            workload, STUDY_MACHINES, scale.sampling(), jobs=1
        )
    else:
        result = characterize_decode(
            workload, None, STUDY_MACHINES, scale.sampling(), jobs=1
        )
    return cell_record(result)


# -- the supervised pool over the store ---------------------------------------


def telemetry_path(run_dir: Path) -> Path:
    return Path(run_dir) / "telemetry" / "attempts.json"


def load_telemetry(run_dir: Path) -> dict:
    """The run's attempt sidecar, or an empty one if absent or corrupt."""
    return load_record(telemetry_path(run_dir)) or {"cells": {}}


def _cell_row(outcome: TaskOutcome) -> dict:
    total = sum(a.duration_s for a in outcome.attempts)
    final = outcome.attempts[-1].duration_s if outcome.attempts else 0.0
    return {
        "attempts": len(outcome.attempts),
        "outcome": "done" if outcome.ok else "quarantined",
        "total_s": round(total, 4),
        "final_attempt_s": round(final, 4),
        "retry_overhead_s": round(total - (final if outcome.ok else 0.0), 4),
        "rss_peak_bytes": max(
            (a.rss_peak_bytes for a in outcome.attempts), default=0
        ),
        "history": [asdict(a) for a in outcome.attempts],
    }


def _execute(run_dir: Path, tasks: list, pool: SupervisedPool) -> dict:
    """Run ``tasks`` on ``pool``, publish each result; returns cell rows.

    A cell whose result cannot be published is quarantined with a
    ``persist-failure`` attempt appended to its history.
    """
    rows = {}
    for cell_id, outcome in pool.run(tasks).items():
        row = rows[cell_id] = _cell_row(outcome)
        if outcome.ok:
            try:
                with obs.span("runner.publish_cell", cell=cell_id):
                    publish(cell_path(run_dir, cell_id), outcome.result, cell_id)
                obs.counter_add("runner.cells_done")
                continue
            except StoreError as error:
                row["outcome"] = "quarantined"
                row["history"].append(
                    {"index": row["attempts"] + 1, "outcome": "persist-failure",
                     "error": str(error), "duration_s": 0.0,
                     "rss_peak_bytes": 0, "worker_pid": 0}
                )
        obs.counter_add("runner.cells_quarantined")
    return rows


def statuses(run_dir: Path, cell_ids, rows: dict | None = None
             ) -> dict[str, str]:
    """Every cell's state: done (published), quarantined, or pending.

    Quarantines are read from ``rows`` (attempt-sidecar rows by cell
    id), by default from the run's published sidecar.
    """
    if rows is None:
        rows = load_telemetry(run_dir)["cells"]
    out = {}
    for cell_id in cell_ids:
        if load_cell(run_dir, cell_id) is not None:
            out[cell_id] = "done"
        elif rows.get(cell_id, {}).get("outcome") == "quarantined":
            out[cell_id] = "quarantined"
        else:
            out[cell_id] = "pending"
    return out


def _publish_telemetry(run_dir: Path, meta: dict, rows: dict,
                       wall_s: float) -> None:
    """Merge this pass's rows into the sidecar and publish it."""
    merged = {**load_telemetry(run_dir)["cells"], **rows}
    state = list(statuses(run_dir, meta["cells"], merged).values())
    telemetry = {
        "grid": meta["grid"],
        "scale": meta["scale"],
        "wall_s": round(wall_s, 4),
        "cells": merged,
        "totals": {
            "cells": len(state),
            **{name: state.count(name)
               for name in ("done", "quarantined", "pending")},
            "attempts": sum(row["attempts"] for row in merged.values()),
            "retry_overhead_s": round(
                sum(row["retry_overhead_s"] for row in merged.values()), 4
            ),
        },
    }
    publish(telemetry_path(run_dir), telemetry, "telemetry")


# -- run orchestration -------------------------------------------------------


def _open_run(run_dir: Path, grid: str | None, scale: str | None,
              resume: bool) -> dict:
    """The run's ``run.json``: loaded on resume, otherwise published.

    A fresh run never replaces an existing one: a finished paper-scale
    run is hours of work, and resuming is what a second pass means.
    """
    run_file = run_dir / "run.json"
    if run_file.exists():
        if not resume:
            raise ValueError(
                f"run {run_dir.name!r} already exists in {run_dir.parent}; "
                f"finish it with --resume {run_dir.name} or pick another "
                f"--run-id"
            )
        meta = load_record(run_file)
        if meta is None or not {"grid", "scale", "cells"} <= set(meta):
            raise ValueError(
                f"{run_file} is torn, corrupt or from an older run format "
                f"(those are not migrated); start a new --run-id"
            )
        for name, given in (("grid", grid), ("scale", scale)):
            if given is not None and given != meta[name]:
                raise ValueError(
                    f"run {run_dir.name!r} is a --{name} {meta[name]} run, "
                    f"not --{name} {given}"
                )
        if meta["cells"] != [c.cell_id for c in GRIDS.get(meta["grid"], ())]:
            raise ValueError(
                f"run {run_dir.name!r} lists cells that grid "
                f"{meta['grid']!r} does not have"
            )
        return meta
    grid = grid or "tables"
    scale = scale or current_scale().name
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r}; known: {sorted(GRIDS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    meta = {"grid": grid, "scale": scale,
            "cells": [cell.cell_id for cell in GRIDS[grid]]}
    publish(run_file, meta, "run.json")
    return meta


def run_study(
    run_dir: str | Path,
    grid: str | None = None,
    scale: str | None = None,
    jobs: int | None = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
    budget: WorkerBudget | None = None,
) -> dict:
    """Run (or resume) one crash-safe study; returns its summary.

    A fresh run publishes its grid (default ``tables``) and scale
    (default ``$REPRO_SCALE``) in ``run.json`` and executes every cell;
    it refuses a directory that already holds a run.  ``resume`` starts
    an absent run the same way, and otherwise reuses the recorded grid
    and scale, so the completed run is always internally consistent --
    the precondition for byte-identical artifacts -- and re-executes
    only the cells that are not published.  The summary is written to
    ``summary.json``; the returned dict also counts the reused cells in
    ``skipped_cells``.
    """
    run_dir = Path(run_dir)
    meta = _open_run(run_dir, grid, scale, resume)
    cells = GRIDS[meta["grid"]]
    todo = [
        cell for cell in cells
        if not (resume and load_cell(run_dir, cell.cell_id) is not None)
    ]
    pool = SupervisedPool(
        max_workers=jobs if jobs is not None else default_jobs(),
        budget=budget if budget is not None
        else WorkerBudget(wall_s=DEFAULT_CELL_BUDGET_S, heartbeat_s=30.0),
        retry=retry if retry is not None else RetryPolicy(),
    )
    start = time.monotonic()
    with obs.span("runner.study", grid=meta["grid"], scale=meta["scale"],
                  cells=len(todo)):
        rows = _execute(
            run_dir,
            [(cell.cell_id, execute_cell, (asdict(cell), meta["scale"]))
             for cell in todo],
            pool,
        )
    try:
        _publish_telemetry(run_dir, meta, rows, time.monotonic() - start)
    except StoreError as error:
        print(f"warning: attempt history lost ({error})", file=sys.stderr)
    artifacts = assemble_artifacts(run_dir, meta)
    summary = {
        "grid": meta["grid"],
        "scale": meta["scale"],
        "cells": len(cells),
        "artifacts": sorted(artifacts),
        "missing_cells": [
            cell.cell_id for cell in cells
            if load_cell(run_dir, cell.cell_id) is None
        ],
    }
    atomic_write(run_dir / "summary.json", canonical(summary))
    summary["skipped_cells"] = len(cells) - len(todo)
    return summary


# -- artifact assembly from the store ------------------------------------------


class ManifestRunner:
    """Duck-types :class:`repro.core.experiments.StudyRunner` over a run
    directory: experiments render from published, digest-verified cells.

    A quarantined or missing cell raises :class:`StudyCellError` carrying
    the attempt history from the telemetry sidecar, so the experiment
    registry's existing partial-table degradation applies unchanged.
    """

    def __init__(self, run_dir: str | Path, scale: str) -> None:
        self.run_dir = Path(run_dir)
        self.n_frames = SCALES[scale].n_frames
        self._cache: dict[str, StudyResult] = {}

    def run(self, direction, width, height, n_vos, n_layers):
        cell = CellSpec(direction, width, height, n_vos, n_layers)
        cell_id = cell.cell_id
        if cell_id not in self._cache:
            record = load_cell(self.run_dir, cell_id)
            if record is None:
                row = load_telemetry(self.run_dir)["cells"].get(cell_id, {})
                history = "; ".join(
                    f"attempt {a.get('index')}: {a.get('outcome')}"
                    for a in row.get("history", [])
                )
                raise StudyCellError(
                    cell.workload(self.n_frames), direction,
                    RuntimeError(
                        f"cell {cell_id!r} has no published result"
                        + (f" [{history}]" if history else "")
                    ),
                )
            self._cache[cell_id] = study_result(cell, record, self.n_frames)
        return self._cache[cell_id]

    def encode(self, width, height, n_vos=1, n_layers=1):
        return self.run("encode", width, height, n_vos, n_layers)

    def decode(self, width, height, n_vos=1, n_layers=1):
        return self.run("decode", width, height, n_vos, n_layers)


def assemble_artifacts(
    run_dir: str | Path, meta: dict, experiment_ids: tuple[str, ...] | None = None
) -> dict:
    """Render paper artifacts from a run's published cells.

    Artifacts land under ``<run>/artifacts/<id>.txt`` (atomic writes);
    ``experiment_ids`` defaults to everything the run's grid covers.
    Returns ``{experiment_id: ExperimentResult}``; partial tables carry
    their failure notes exactly as in the in-process pipeline.
    """
    if experiment_ids is None:
        experiment_ids = GRID_EXPERIMENTS.get(meta["grid"], ())
    runner = ManifestRunner(run_dir, meta["scale"])
    results = {}
    for experiment_id in experiment_ids:
        result = EXPERIMENTS[experiment_id](runner)
        results[experiment_id] = result
        atomic_write(
            Path(run_dir) / "artifacts" / f"{experiment_id}.txt",
            result.text + "\n",
        )
    return results


def status_report(run_dir: Path, meta: dict) -> str:
    """One line per cell, plus the attempt history of every cell that
    is not done."""
    rows = load_telemetry(run_dir)["cells"]
    lines = [f"{'cell':<28} {'status':<12} {'attempts':>8}"]
    for cell_id, status in statuses(run_dir, meta["cells"], rows).items():
        row = rows.get(cell_id, {})
        lines.append(f"{cell_id:<28} {status:<12} {row.get('attempts', 0):>8}")
        if status == "done":
            continue
        for attempt in row.get("history", []):
            error = str(attempt.get("error", "")).strip().splitlines()
            detail = f" -- {error[-1]}" if error else ""
            lines.append(
                f"  attempt {attempt.get('index')}: {attempt.get('outcome')} "
                f"({attempt.get('duration_s', 0):.2f}s){detail}"
            )
    return "\n".join(lines)


# -- seeded chaos sweep ------------------------------------------------------


def probe_cell(cell_index: int, seed: int) -> dict:
    """A trivial, deterministic 'cell': its correct record is computable
    from its inputs alone, which is what lets the sweep detect a silently
    wrong result (as opposed to a loud failure)."""
    return {"cell": cell_index, "seed": seed, "value": (cell_index + 1) * 7919}


@dataclass
class ChaosCaseResult:
    seed: int
    statuses: dict[str, str]
    violations: list[str] = field(default_factory=list)
    #: Typed, surfaced failures (a record the store could not publish):
    #: the runner said loudly that it could not proceed -- sound behavior
    #: under fault injection, so not a contract violation.
    loud_errors: list[str] = field(default_factory=list)
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosSweepReport:
    profile: str
    cases: list[ChaosCaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def violations(self) -> list[str]:
        return [
            f"seed {case.seed}: {violation}"
            for case in self.cases
            for violation in case.violations
        ]

    def summary(self) -> str:
        terminal = [
            status for case in self.cases for status in case.statuses.values()
        ]
        attempts = sum(case.attempts for case in self.cases)
        loud = sum(len(case.loud_errors) for case in self.cases)
        lines = [
            f"{len(self.cases)} chaos cases (profile={self.profile}): "
            f"{terminal.count('done')} cells done, "
            f"{terminal.count('quarantined')} quarantined, "
            f"{terminal.count('pending')} pending, "
            f"{attempts} attempts, {loud} loud persistence failures, "
            f"{len(self.violations)} violations"
        ]
        lines.extend(f"  VIOLATION {line}" for line in self.violations)
        return "\n".join(lines)


def _run_chaos_case(
    seed: int, profile: str, n_cells: int, root: Path, retry, budget
) -> ChaosCaseResult:
    run_dir = root / f"chaos-{seed}"
    cell_ids = [f"probe-{index}" for index in range(n_cells)]
    meta = {"grid": "chaos-probe", "scale": "n/a", "cells": cell_ids}
    case = ChaosCaseResult(seed=seed, statuses={})
    previous = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = f"{seed}:{profile}"
    try:
        try:
            publish(run_dir / "run.json", meta, "run.json")
        except StoreError as error:
            # A typed, surfaced refusal before any work ran: nothing is
            # silently wrong, so the case records a loud error, not a
            # violation.
            case.loud_errors.append(f"run creation failed loudly: {error}")
            return case
        pool = SupervisedPool(max_workers=2, budget=budget, retry=retry)
        rows = _execute(
            run_dir,
            [(cell_id, probe_cell, (index, seed))
             for index, cell_id in enumerate(cell_ids)],
            pool,
        )
        case.attempts = sum(row["attempts"] for row in rows.values())
        history_lost = False
        try:
            _publish_telemetry(run_dir, meta, rows, 0.0)
        except StoreError as error:
            case.loud_errors.append(f"attempt history lost: {error}")
            history_lost = True
        # -- invariants, read back from disk: every cell terminal, every
        # published record correct, every quarantine with its history.
        on_disk = load_telemetry(run_dir)["cells"]
        case.statuses = statuses(run_dir, cell_ids, on_disk)
        for index, cell_id in enumerate(cell_ids):
            status = case.statuses[cell_id]
            if status == "done":
                record = load_cell(run_dir, cell_id)
                if record != probe_cell(index, seed):
                    case.violations.append(
                        f"{cell_id} published a WRONG record: {record!r}"
                    )
            elif status == "quarantined":
                if not on_disk[cell_id]["history"]:
                    case.violations.append(
                        f"{cell_id} quarantined with empty attempt history"
                    )
            elif history_lost and rows[cell_id]["outcome"] == "quarantined":
                # Its quarantine lived only in the lost sidecar: the cell
                # reads back pending and a resume re-runs it.
                case.loud_errors.append(
                    f"{cell_id}: quarantine unrecorded (attempt history lost)"
                )
            else:
                case.violations.append(f"{cell_id} ended non-terminal: {status!r}")
        strays = list(run_dir.rglob("*.tmp"))
        if strays:
            case.violations.append(
                f"temporary files leaked: {[s.name for s in strays]}"
            )
    except Exception as error:  # noqa: BLE001 -- the uncaught-crash invariant
        case.violations.append(
            f"uncaught {type(error).__name__} escaped the orchestration: "
            f"{error}"
        )
    finally:
        if previous is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = previous
    return case


def run_chaos_sweep(
    n_cases: int = 100,
    master_seed: int = 0,
    profile: str = "heavy",
    n_cells: int = 2,
    runs_dir=None,
) -> ChaosSweepReport:
    """Seeded chaos sweep: every case replayable from its seed alone.

    Each case arms ``REPRO_CHAOS`` with a distinct seed and pushes probe
    cells through the real supervised pool and cell store.  The contract
    checked is the runner's whole reason to exist: injected faults are
    retried to success or reported as quarantined cells with history --
    no uncaught crash, no non-terminal cell, no silently wrong record,
    no leaked temporary file.
    """
    retry = RetryPolicy(
        max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, jitter=0.25
    )
    budget = WorkerBudget(wall_s=0.5, heartbeat_s=0.6, hard_margin_s=0.2)
    report = ChaosSweepReport(profile=profile)
    keep_dir = runs_dir is not None
    root = runs_dir if keep_dir else tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        for case_index in range(n_cases):
            report.cases.append(
                _run_chaos_case(
                    master_seed + case_index, profile, n_cells,
                    Path(root), retry, budget,
                )
            )
    finally:
        if not keep_dir:
            shutil.rmtree(root, ignore_errors=True)
    return report


__all__ = [
    "CellSpec",
    "ChaosSweepReport",
    "DEFAULT_CELL_BUDGET_S",
    "GRIDS",
    "GRID_EXPERIMENTS",
    "ManifestRunner",
    "assemble_artifacts",
    "cell_record",
    "execute_cell",
    "load_telemetry",
    "run_chaos_sweep",
    "run_study",
    "status_report",
    "statuses",
    "study_result",
]
