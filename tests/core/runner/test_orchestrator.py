"""The orchestration layer: grids, resume, artifacts, telemetry, chaos.

The fast tests drive the real pool and cell store over a stubbed probe
grid; the integration tests run the genuine ``tiny`` grid end to end
(the 32x32 cells cost ~0.1s each at ``quick`` scale) and prove the
headline contract: a chaos-killed run, resumed without chaos, publishes
cells byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.experiments import (
    EXPERIMENTS,
    SCALES,
    ExperimentResult,
    StudyRunner,
)
from repro.core.runner import orchestrator as orch
from repro.core.runner.chaos import POINT_WORKER_CELL, ChaosInjector, PROFILES
from repro.core.runner.cli import study_main
from repro.core.runner.orchestrator import (
    CellSpec,
    GRID_EXPERIMENTS,
    GRIDS,
    ManifestRunner,
    assemble_artifacts,
    execute_cell,
    load_telemetry,
    run_chaos_sweep,
    run_study,
    study_result,
)
from repro.core.runner.supervisor import RetryPolicy, WorkerBudget
from repro.core.study import StudyCellError
from repro.core.sweep import StoreError, cell_path, load_cell, publish

SRC = Path(__file__).resolve().parents[3] / "src"


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


class TestGrids:
    def test_tables_grid_covers_both_resolutions_and_directions(self):
        cells = GRIDS["tables"]
        assert len(cells) == 12
        assert {c.direction for c in cells} == {"encode", "decode"}
        assert {(c.n_vos, c.n_layers) for c in cells} == {
            (1, 1), (3, 1), (3, 2)
        }

    def test_full_grid_adds_the_huge_decode_point(self):
        extra = set(GRIDS["full"]) - set(GRIDS["tables"])
        assert len(extra) == 1
        assert next(iter(extra)).direction == "decode"

    def test_cell_ids_are_unique_per_grid(self):
        for cells in GRIDS.values():
            ids = [c.cell_id for c in cells]
            assert len(ids) == len(set(ids))

    def test_grid_experiments_are_registered(self):
        for experiment_ids in GRID_EXPERIMENTS.values():
            assert all(e in EXPERIMENTS for e in experiment_ids)


class TestCellBudget:
    def _pool_arguments(self, tmp_path, monkeypatch, *argv) -> dict:
        seen = {}

        def fake_run_study(run_dir, **kwargs):
            seen.update(kwargs)
            raise ValueError("stop here")

        monkeypatch.setattr(orch, "run_study", fake_run_study)
        assert study_main(["--runs-dir", str(tmp_path), *argv]) == 2
        return seen

    def test_default_and_cli_override(self, tmp_path, monkeypatch):
        seen = self._pool_arguments(tmp_path, monkeypatch)
        assert seen["budget"] == WorkerBudget(wall_s=1800.0, heartbeat_s=30.0)
        assert seen["retry"].max_attempts == 3
        seen = self._pool_arguments(tmp_path, monkeypatch, "--cell-budget",
                                    "42.5", "--max-attempts", "2")
        assert seen["budget"] == WorkerBudget(wall_s=42.5, heartbeat_s=30.0)
        assert seen["retry"].max_attempts == 2

    def test_garbage_budget_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            study_main(["--runs-dir", str(tmp_path), "--cell-budget", "forever"])
        assert excinfo.value.code == 2
        assert "--cell-budget: invalid float value" in capsys.readouterr().err


def _probe_execute_cell(cell_fields: dict, scale_name: str) -> dict:
    """A deterministic, instant stand-in for the real characterization."""
    return {"cell": dict(cell_fields), "scale": scale_name, "token": 7919}


_PROBE_GRID = (
    CellSpec("encode", 8, 8, 1, 1),
    CellSpec("decode", 8, 8, 1, 1),
    CellSpec("encode", 8, 8, 3, 1),
)


@pytest.fixture
def probe_grid(monkeypatch):
    monkeypatch.setitem(GRIDS, "probe", _PROBE_GRID)
    monkeypatch.setitem(GRID_EXPERIMENTS, "probe", ())
    monkeypatch.setattr(orch, "execute_cell", _probe_execute_cell)
    return "probe"


def _cell_bytes(run_dir, cells=_PROBE_GRID) -> dict:
    return {
        cell.cell_id: cell_path(run_dir, cell.cell_id).read_bytes()
        for cell in cells
    }


class TestRunStudy:
    def test_fresh_run_commits_every_cell(self, tmp_path, probe_grid):
        summary = run_study(tmp_path, grid=probe_grid, scale="quick", jobs=2)
        assert summary["missing_cells"] == []
        assert summary["skipped_cells"] == 0
        for cell in _PROBE_GRID:
            assert load_cell(tmp_path, cell.cell_id)["token"] == 7919
        assert not list(tmp_path.rglob("*.pkl"))
        telemetry = load_telemetry(tmp_path)
        assert telemetry["totals"]["done"] == 3
        assert telemetry["totals"]["attempts"] == 3
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == {"artifacts": [], "cells": 3, "grid": "probe",
                           "missing_cells": [], "scale": "quick"}

    def test_resume_skips_completed_cells(self, tmp_path, probe_grid):
        run_study(tmp_path, grid=probe_grid, scale="quick", jobs=1)
        before = _cell_bytes(tmp_path)
        resumed = run_study(tmp_path, resume=True)
        assert resumed["skipped_cells"] == len(_PROBE_GRID)
        assert resumed["grid"] == probe_grid  # recorded in run.json
        assert _cell_bytes(tmp_path) == before

    def test_resume_reexecutes_torn_cells(self, tmp_path, probe_grid):
        run_study(tmp_path, grid=probe_grid, scale="quick", jobs=1)
        victim = _PROBE_GRID[0].cell_id
        cell_path(tmp_path, victim).write_text("{ torn")
        resumed = run_study(tmp_path, resume=True)
        assert resumed["missing_cells"] == []
        assert resumed["skipped_cells"] == len(_PROBE_GRID) - 1
        assert load_cell(tmp_path, victim)["token"] == 7919

    def test_resume_of_an_absent_run_starts_it(self, tmp_path, probe_grid):
        summary = run_study(tmp_path, grid=probe_grid, scale="quick",
                            resume=True)
        assert summary["missing_cells"] == [] and summary["skipped_cells"] == 0

    def test_resume_rejects_a_conflicting_grid(self, tmp_path, probe_grid):
        run_study(tmp_path, grid=probe_grid, scale="quick")
        with pytest.raises(ValueError, match="--grid probe run"):
            run_study(tmp_path, grid="tiny", resume=True)

    def test_resume_requires_run_id(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            study_main(["--runs-dir", str(tmp_path), "--resume"])
        assert excinfo.value.code == 2
        assert "--resume: expected one argument" in capsys.readouterr().err

    def test_unknown_grid_and_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown grid"):
            run_study(tmp_path, grid="nope", scale="quick")
        with pytest.raises(ValueError, match="unknown scale"):
            run_study(tmp_path, grid="tiny", scale="warp")


class TestCellRecords:
    def test_record_rebuilds_the_study_result_exactly(self):
        cell = GRIDS["tiny"][0]
        scale = SCALES["quick"]
        record = json.loads(json.dumps(execute_cell(asdict(cell), "quick")))
        rebuilt = study_result(cell, record, scale.n_frames)
        fresh = StudyRunner(scale, jobs=1).encode(32, 32)
        assert rebuilt.reports == fresh.reports
        assert rebuilt.phase_reports == fresh.phase_reports
        assert rebuilt.raw_counters == fresh.raw_counters
        assert list(rebuilt.reports) == list(fresh.reports)
        assert rebuilt.footprint_bytes == fresh.footprint_bytes


class TestManifestRunner:
    def test_renders_from_committed_payload(self, tmp_path, monkeypatch):
        sentinel = object()
        monkeypatch.setattr(orch, "study_result", lambda cell, rec, n: sentinel)
        publish(cell_path(tmp_path, "encode-32x32-1vo-1l"), {"any": 1}, "k")
        runner = ManifestRunner(tmp_path, "quick")
        assert runner.encode(32, 32) is sentinel
        assert runner.run("encode", 32, 32, 1, 1) is sentinel

    def test_quarantined_cell_raises_study_cell_error_with_history(
        self, tmp_path
    ):
        publish(
            tmp_path / "telemetry" / "attempts.json",
            {"cells": {"decode-32x32-1vo-1l": {"history": [
                {"index": 1, "outcome": "worker-death"},
                {"index": 2, "outcome": "timeout"},
            ]}}},
            "telemetry",
        )
        runner = ManifestRunner(tmp_path, "quick")
        with pytest.raises(StudyCellError) as excinfo:
            runner.decode(32, 32)
        message = str(excinfo.value)
        assert "worker-death" in message and "timeout" in message


class TestChaosSweep:
    def test_seeded_sweep_holds_the_contract(self, tmp_path):
        report = run_chaos_sweep(
            n_cases=20, master_seed=0, profile="heavy", n_cells=2,
            runs_dir=tmp_path,
        )
        assert len(report.cases) == 20
        assert report.ok, report.summary()
        terminal = []
        for case in report.cases:
            for cell_id, status in case.statuses.items():
                if status == "pending":
                    # Only a quarantine whose record the sidecar failed
                    # to keep may read back pending, and only loudly.
                    assert any(
                        error.startswith("attempt history lost")
                        for error in case.loud_errors
                    ), (case.seed, cell_id)
                    assert (
                        f"{cell_id}: quarantine unrecorded "
                        "(attempt history lost)" in case.loud_errors
                    ), (case.seed, cell_id)
                else:
                    terminal.append(status)
        assert terminal and set(terminal) <= {"done", "quarantined"}
        # Heavy chaos must actually have bitten: retries happened.
        assert sum(case.attempts for case in report.cases) > 2 * 20
        assert not list(tmp_path.rglob("*.pkl"))

    def test_lost_history_excuses_only_its_quarantined_cell(self, tmp_path):
        # Seed 87's sidecar publish exhausts its tries after probe-0 was
        # quarantined: probe-0 reads back pending, reported loudly.
        report = run_chaos_sweep(
            n_cases=1, master_seed=87, profile="heavy", n_cells=2,
            runs_dir=tmp_path,
        )
        (case,) = report.cases
        assert report.ok, report.summary()
        assert case.statuses == {"probe-0": "pending", "probe-1": "done"}
        assert case.loud_errors[1:] == [
            "probe-0: quarantine unrecorded (attempt history lost)"
        ]

    def test_lost_history_does_not_excuse_a_done_cell(
        self, tmp_path, monkeypatch
    ):
        def lose_history(run_dir, meta, rows, wall_s):
            cell_path(run_dir, "probe-1").unlink()
            raise StoreError("sidecar not published")

        monkeypatch.setattr(orch, "_publish_telemetry", lose_history)
        report = run_chaos_sweep(
            n_cases=1, master_seed=0, profile="none", n_cells=2,
            runs_dir=tmp_path,
        )
        assert report.violations == [
            "seed 0: probe-1 ended non-terminal: 'pending'"
        ]

    def test_sweep_is_replayable_per_seed(self, tmp_path):
        kwargs = dict(n_cases=4, master_seed=3, profile="kills", n_cells=2)
        first = run_chaos_sweep(**kwargs)
        second = run_chaos_sweep(**kwargs)
        assert [c.statuses for c in first.cases] == [
            c.statuses for c in second.cases
        ]
        assert [c.attempts for c in first.cases] == [
            c.attempts for c in second.cases
        ]


def _seed_that_kills_first_attempt(cell_id: str, spare: str = "") -> int:
    """A ``kills`` seed whose first strike at ``cell_id`` kills, and at
    ``spare`` (if given) does not."""
    for seed in range(200):
        injector = ChaosInjector(seed, PROFILES["kills"])
        if injector.fault_at(POINT_WORKER_CELL, f"{cell_id}/a1") == "kill" and (
            not spare
            or injector.fault_at(POINT_WORKER_CELL, f"{spare}/a1") is None
        ):
            return seed
    raise AssertionError("no killing seed in range")


class TestTinyGridIntegration:
    """The acceptance contract on the real pipeline: a chaos-killed run,
    resumed cleanly, is byte-identical to an uninterrupted run."""

    def test_killed_run_resumes_bit_identical(self, tmp_path, monkeypatch):
        clean = run_study(tmp_path / "clean", grid="tiny", scale="quick",
                          jobs=1)
        assert clean["missing_cells"] == []

        # Interrupted run: the encode cell's only attempt is chaos-killed.
        victim = "encode-32x32-1vo-1l"
        seed = _seed_that_kills_first_attempt(victim, "decode-32x32-1vo-1l")
        monkeypatch.setenv("REPRO_CHAOS", f"{seed}:kills")
        interrupted = tmp_path / "interrupted"
        summary = run_study(
            interrupted, grid="tiny", scale="quick", jobs=1,
            retry=RetryPolicy(max_attempts=1),
            budget=WorkerBudget(wall_s=60.0, heartbeat_s=10.0),
        )
        assert summary["missing_cells"] == [victim]
        row = load_telemetry(interrupted)["cells"][victim]
        assert row["outcome"] == "quarantined"
        assert row["history"][0]["outcome"] == "worker-death"

        # Resume without chaos: only unfinished cells re-execute, and the
        # completed run matches the clean one byte for byte.
        monkeypatch.delenv("REPRO_CHAOS")
        resumed = run_study(interrupted, resume=True)
        assert resumed["missing_cells"] == []
        assert resumed["skipped_cells"] == 1
        assert load_telemetry(interrupted)["cells"][victim]["outcome"] == "done"
        assert _cell_bytes(interrupted, GRIDS["tiny"]) == _cell_bytes(
            tmp_path / "clean", GRIDS["tiny"]
        )


class TestAssembleArtifacts:
    def test_artifacts_render_from_manifest(self, tmp_path, probe_grid,
                                            monkeypatch):
        run_study(tmp_path, grid=probe_grid, scale="quick", jobs=1)
        monkeypatch.setattr(orch, "study_result", lambda cell, rec, n: rec)

        def fake_experiment(runner):
            payload = runner.run("encode", 8, 8, 1, 1)
            return ExperimentResult("probe-exp", f"token={payload['token']}")

        monkeypatch.setitem(EXPERIMENTS, "probe-exp", fake_experiment)
        results = assemble_artifacts(
            tmp_path, {"grid": probe_grid, "scale": "quick"},
            experiment_ids=("probe-exp",),
        )
        assert set(results) == {"probe-exp"}
        rendered = (tmp_path / "artifacts" / "probe-exp.txt").read_text()
        assert rendered == "token=7919\n"


class TestStudyCli:
    def test_old_format_run_is_refused_on_resume(self, tmp_path, capsys):
        old = tmp_path / "old"
        (old / "cells").mkdir(parents=True)
        (old / "run.json").write_text(json.dumps({
            "format": 1, "run_id": "old", "grid": "tiny", "scale": "quick",
            "cells": [c.cell_id for c in GRIDS["tiny"]], "self_digest": "0",
        }))
        (old / "cells" / "encode-32x32-1vo-1l.pkl").write_bytes(b"\x80\x04")
        assert study_main(["--runs-dir", str(tmp_path), "--resume", "old"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("error: ")
        assert "not migrated" in out[0]


def _study_cli(runs_dir, *args, chaos=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if chaos is not None:
        env["REPRO_CHAOS"] = chaos
    return subprocess.run(
        [sys.executable, "-m", "repro", "study", "--grid", "tiny",
         "--scale", "quick", "--runs-dir", str(runs_dir), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_study_cli_kill_and_resume_matches_a_clean_run(tmp_path):
    """The CI drill in miniature: a chaos-killed ``repro study`` resumed
    with ``--verify-complete`` publishes the same cells as a clean run."""
    clean = _study_cli(tmp_path, "--run-id", "smoke", "--verify-complete")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    seed = _seed_that_kills_first_attempt("encode-32x32-1vo-1l",
                                          "decode-32x32-1vo-1l")
    _study_cli(tmp_path, "--resume", "drill", "--max-attempts", "1",
               chaos=f"{seed}:kills")
    resumed = _study_cli(tmp_path, "--resume", "drill", "--verify-complete")
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "verify-complete passed" in resumed.stdout

    def published(run):
        return {
            path.name: path.read_bytes()
            for path in (tmp_path / run / "cells").iterdir()
            if path.suffix != ".attempt"
        }

    assert published("drill") == published("smoke")
    assert (tmp_path / "drill" / "summary.json").read_bytes() == (
        tmp_path / "smoke" / "summary.json"
    ).read_bytes()
