"""The study's run manifest on the shared cell store.

``run.json`` names a run's grid, scale and cells; every done cell is a
digest-verified JSON record published by :func:`repro.core.sweep.publish`;
quarantined cells leave only their attempt history in
``telemetry/attempts.json``.  These tests pin the commit protocol, the
verification on read, resume, and the run listing.
"""

from __future__ import annotations

import json

import pytest

from repro.core.runner import orchestrator as orch
from repro.core.runner.chaos import POINT_STORE_WRITE, ChaosInjector, PROFILES
from repro.core.runner.cli import study_main
from repro.core.runner.orchestrator import (
    CellSpec,
    GRID_EXPERIMENTS,
    GRIDS,
    load_telemetry,
    run_study,
    status_report,
    statuses,
)
from repro.core.sweep import (
    PUBLISH_TRIES,
    StoreError,
    cell_path,
    load_cell,
    load_record,
    publish,
    runs_root,
)

_CELLS = (
    CellSpec("encode", 8, 8, 1, 1),
    CellSpec("decode", 8, 8, 1, 1),
    CellSpec("encode", 8, 8, 3, 1),
)
_IDS = [cell.cell_id for cell in _CELLS]


def _probe_execute_cell(cell_fields: dict, scale_name: str) -> dict:
    return {"cell": dict(cell_fields), "token": 7919}


@pytest.fixture(autouse=True)
def probe_grid(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.setitem(GRIDS, "probe", _CELLS)
    monkeypatch.setitem(GRID_EXPERIMENTS, "probe", ())
    monkeypatch.setattr(orch, "execute_cell", _probe_execute_cell)


def _make(root, run_id="run-a"):
    run_study(root / run_id, grid="probe", scale="quick", jobs=1)
    return root / run_id


def _state(run_dir):
    return statuses(run_dir, load_record(run_dir / "run.json")["cells"])


def _quarantine(run_dir, cell_id, history):
    """Unpublish ``cell_id`` and record it as quarantined with ``history``."""
    cell_path(run_dir, cell_id).unlink()
    telemetry = load_telemetry(run_dir)
    telemetry["cells"][cell_id] = {
        "attempts": len(history), "outcome": "quarantined",
        "retry_overhead_s": 0.0, "history": history,
    }
    publish(run_dir / "telemetry" / "attempts.json", telemetry, "t")


def _io_faults(key: str) -> list:
    """The ``5:io`` chaos draws of each publish try under ``key``."""
    injector = ChaosInjector(5, PROFILES["io"])
    return [
        injector.fault_at(POINT_STORE_WRITE, f"{key}/t{attempt}")
        for attempt in range(1, PUBLISH_TRIES + 1)
    ]


class TestRunsRoot:
    def test_explicit_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "/elsewhere")
        assert runs_root(str(tmp_path), "study") == tmp_path

    def test_env_then_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "/from-env")
        assert str(runs_root(None, "study")) == "/from-env/study"
        monkeypatch.delenv("REPRO_RUNS")
        assert str(runs_root(None, "study")) == ".repro-runs/study"

    def test_empty_env_falls_back_to_the_default(self, monkeypatch):
        # Regression: an empty value must not resolve to the working
        # directory, for any study family.
        monkeypatch.setenv("REPRO_RUNS", "")
        assert str(runs_root(None, "serve")) == ".repro-runs/serve"
        assert str(runs_root(None, "study")) == ".repro-runs/study"


class TestCreateAndLoad:
    def test_round_trip(self, tmp_path):
        run_dir = _make(tmp_path)
        assert load_record(run_dir / "run.json") == {
            "grid": "probe", "scale": "quick", "cells": _IDS,
        }
        for cell_id in _IDS:
            cell_path(run_dir, cell_id).unlink()
        assert _state(run_dir) == {
            cell_id: "pending" for cell_id in _IDS
        }

    def test_create_refuses_to_clobber(self, tmp_path):
        run_dir = _make(tmp_path)
        before = (run_dir / "run.json").read_bytes()
        with pytest.raises(ValueError, match="already exists"):
            run_study(run_dir, grid="tiny", scale="quick")
        assert (run_dir / "run.json").read_bytes() == before

    def test_load_missing_run_fails(self, tmp_path, capsys):
        assert load_record(tmp_path / "no-such-run" / "run.json") is None
        assert study_main(
            ["--runs-dir", str(tmp_path), "--report", "no-such-run"]
        ) == 2
        assert capsys.readouterr().out.startswith("error: ")

    def test_torn_run_record_detected_by_self_digest(self, tmp_path):
        run_dir = _make(tmp_path)
        body = json.loads((run_dir / "run.json").read_text())
        body["cells"][0] = "cell-X"  # a flipped byte in the cell list
        (run_dir / "run.json").write_text(json.dumps(body))
        assert load_record(run_dir / "run.json") is None
        with pytest.raises(ValueError, match="torn, corrupt"):
            run_study(run_dir, resume=True)


class TestCommitProtocol:
    def test_commit_then_verified_load(self, tmp_path):
        run_dir = _make(tmp_path)
        assert load_cell(run_dir, _IDS[0])["token"] == 7919
        assert _state(run_dir) == {
            cell_id: "done" for cell_id in _IDS
        }
        assert not list(run_dir.rglob("*.pkl"))

    def test_uncommitted_cell_has_no_payload(self, tmp_path):
        assert load_cell(tmp_path, _IDS[0]) is None

    def test_torn_payload_reports_pending_not_done(self, tmp_path):
        # The resume contract: a cell that fails its digest must
        # re-execute, exactly as if it never committed.
        run_dir = _make(tmp_path)
        path = cell_path(run_dir, _IDS[0])
        path.write_text(path.read_text().replace("7919", "7918"))
        assert load_cell(run_dir, _IDS[0]) is None
        state = _state(run_dir)
        assert state[_IDS[0]] == "pending"
        assert run_study(run_dir, resume=True)["skipped_cells"] == 2
        assert load_cell(run_dir, _IDS[0])["token"] == 7919

    def test_quarantine_records_history(self, tmp_path):
        run_dir = _make(tmp_path)
        _quarantine(run_dir, _IDS[1], [
            {"index": 1, "outcome": "worker-death", "duration_s": 1.0,
             "error": "exited -9"},
            {"index": 2, "outcome": "timeout", "duration_s": 2.0,
             "error": "deadline"},
        ])
        meta = load_record(run_dir / "run.json")
        assert statuses(run_dir, meta["cells"])[_IDS[1]] == "quarantined"
        report = status_report(run_dir, meta)
        assert f"{_IDS[1]} quarantined 2" in " ".join(report.split())
        assert "worker-death" in report and "timeout" in report

    def test_incomplete_cells_drive_resume(self, tmp_path):
        run_dir = _make(tmp_path)
        cell_path(run_dir, _IDS[0]).unlink()
        _quarantine(run_dir, _IDS[2], [{"index": 1, "outcome": "timeout"}])
        done_row = load_telemetry(run_dir)["cells"][_IDS[1]]
        summary = run_study(run_dir, resume=True, jobs=1)
        # Pending AND quarantined cells re-execute; done cells are skipped.
        assert summary["skipped_cells"] == 1
        assert summary["missing_cells"] == []
        rows = load_telemetry(run_dir)["cells"]
        assert rows[_IDS[1]] == done_row
        assert rows[_IDS[2]]["outcome"] == "done"
        assert rows[_IDS[2]]["history"][0]["outcome"] == "ok"

    def test_commit_retries_through_transient_chaos(self, tmp_path,
                                                   monkeypatch):
        # A cell whose first publish try draws a fault but whose second
        # runs clean: the commit must succeed and verify.
        cell_id = next(
            f"cell-{i}" for i in range(5000)
            if _io_faults(f"cell-{i}")[0] is not None
            and _io_faults(f"cell-{i}")[1] is None
        )
        monkeypatch.setenv("REPRO_CHAOS", "5:io")
        publish(cell_path(tmp_path, cell_id), {"value": 1.1}, cell_id)
        monkeypatch.delenv("REPRO_CHAOS")
        assert load_cell(tmp_path, cell_id) == {"value": 1.1}

    def test_commit_exhaustion_raises_not_lies(self, tmp_path, monkeypatch):
        # Every publish try faulted, the last one tearing the bytes: the
        # commit must raise, and the cell must read as absent -- never
        # as done with bad bytes.
        cell_id = next(
            f"cell-{i}" for i in range(100000)
            if all(fault is not None for fault in _io_faults(f"cell-{i}"))
            and _io_faults(f"cell-{i}")[-1] == "torn_write"
        )
        monkeypatch.setenv("REPRO_CHAOS", "5:io")
        with pytest.raises(StoreError, match="after 3 tries"):
            publish(cell_path(tmp_path, cell_id), {"value": 1}, cell_id)
        monkeypatch.delenv("REPRO_CHAOS")
        assert cell_path(tmp_path, cell_id).exists()  # torn bytes landed
        assert load_cell(tmp_path, cell_id) is None  # ...and are not read
        assert not list(tmp_path.rglob("*.tmp"))


class TestListRuns:
    def _listing(self, root, capsys) -> list[list[str]]:
        capsys.readouterr()
        assert study_main(["--runs-dir", str(root), "--list-runs"]) == 0
        return [line.split() for line in capsys.readouterr().out.splitlines()]

    def test_lists_and_sorts(self, tmp_path, capsys):
        _make(tmp_path, "run-b")
        run_a = _make(tmp_path, "run-a")
        _quarantine(run_a, _IDS[1], [{"index": 1, "outcome": "timeout"}])
        cell_path(run_a, _IDS[2]).unlink()
        rows = self._listing(tmp_path, capsys)
        assert rows[1] == ["run-a", "probe", "quick", "1", "1", "1"]
        assert rows[2] == ["run-b", "probe", "quick", "3", "0", "0"]

    def test_empty_root(self, tmp_path, capsys):
        rows = self._listing(tmp_path / "nowhere", capsys)
        assert rows[0][:3] == ["no", "runs", "under"]

    def test_unreadable_run_is_reported_not_fatal(self, tmp_path, capsys):
        run_dir = _make(tmp_path)
        (run_dir / "run.json").write_text("{ torn json")
        _make(tmp_path, "run-b")
        rows = self._listing(tmp_path, capsys)
        assert rows[1] == ["run-a", "unreadable", "run.json"]
        assert rows[2][:2] == ["run-b", "probe"]
