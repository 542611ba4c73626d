"""The shared crash-safe cell store: layout, resume, attempts, wall rows."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

import repro.core.sweep as sweep
from repro.core.runner.chaos import POINT_WORKER_CELL
from repro.service.cli import serve_main


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


@dataclass(frozen=True)
class ToyCell:
    n: int

    @property
    def cell_id(self) -> str:
        return f"toy{self.n}"


def toy_run(cell: ToyCell) -> tuple[dict, dict]:
    return {"cell_id": cell.cell_id, "square": cell.n * cell.n}, {
        "cell_id": cell.cell_id, "wall_s": 0.0, "sessions_per_wall_sec": 0.0,
    }


def toy_sweep(run_dir, ns, resume=False, run_cell=toy_run, render=None):
    cells = [ToyCell(n) for n in ns]

    def summarize():
        records = [sweep.load_cell(run_dir, cell.cell_id) for cell in cells]
        return {
            "total": sum(r["square"] for r in records if r is not None),
            "missing_cells": [
                cell.cell_id for cell, r in zip(cells, records) if r is None
            ],
        }

    return sweep.run_grid(run_dir, cells, run_cell, summarize, render,
                          label="toy:", resume=resume)


class TestCellStore:
    def test_published_cell_round_trips_and_rejects_tampering(self, tmp_path):
        toy_sweep(tmp_path, [3])
        path = sweep.cell_path(tmp_path, "toy3")
        assert path == tmp_path / "cells" / "toy3.json"
        assert sweep.load_cell(tmp_path, "toy3") == {
            "cell_id": "toy3", "square": 9,
        }
        text = path.read_text()
        assert text == sweep.canonical(json.loads(text))
        path.write_text(text.replace('"square": 9', '"square": 10'))
        assert sweep.load_cell(tmp_path, "toy3") is None
        path.write_text("[]")
        assert sweep.load_cell(tmp_path, "toy3") is None
        assert sweep.load_cell(tmp_path, "absent") is None

    def test_attempt_marker_counts_through_atomic_write(
        self, tmp_path, monkeypatch
    ):
        writes = []
        real = sweep.atomic_write

        def recording(path, data, **kw):
            writes.append((path, data))
            real(path, data, **kw)

        monkeypatch.setattr(sweep, "atomic_write", recording)
        attempts = [sweep.next_attempt(tmp_path, "c") for _ in range(3)]
        assert attempts == [1, 2, 3]
        marker = tmp_path / "cells" / "c.attempt"
        assert writes == [(marker, "1"), (marker, "2"), (marker, "3")]
        assert marker.read_text() == "3"

    def test_empty_attempt_marker_restarts_at_one(self, tmp_path):
        marker = tmp_path / "cells" / "c.attempt"
        marker.parent.mkdir()
        marker.write_text("")
        assert sweep.next_attempt(tmp_path, "c") == 1


class TestRunGrid:
    def test_unpublishable_cell_is_left_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing(path, record, key):
            raise sweep.StoreError(f"{path} not published")

        monkeypatch.setattr(sweep, "publish", failing)
        summary = toy_sweep(tmp_path, [1])
        assert summary["missing_cells"] == ["toy1"]
        assert "left for --resume" in capsys.readouterr().err

    def test_writes_layout_and_summary(self, tmp_path):
        summary = toy_sweep(tmp_path, [1, 2], render=lambda s: f"t={s['total']}")
        assert summary["total"] == 5
        assert summary["skipped_cells"] == 0
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert "skipped_cells" not in on_disk
        assert (tmp_path / "table.txt").read_text() == "t=5\n"
        assert sorted(p.name for p in (tmp_path / "cells").iterdir()) == [
            "toy1.attempt", "toy1.json", "toy2.attempt", "toy2.json",
        ]

    def test_resume_skips_only_valid_cells(self, tmp_path):
        toy_sweep(tmp_path, [1, 2])
        sweep.cell_path(tmp_path, "toy2").write_text("{torn")
        ran = []

        def counting(cell):
            ran.append(cell.cell_id)
            return toy_run(cell)

        summary = toy_sweep(tmp_path, [1, 2], resume=True, run_cell=counting)
        assert ran == ["toy2"]
        assert summary["skipped_cells"] == 1
        assert (tmp_path / "cells" / "toy2.attempt").read_text() == "2"

    def test_no_table_and_no_sidecar_without_them(self, tmp_path):
        toy_sweep(tmp_path, [1], run_cell=lambda cell: (toy_run(cell)[0], None))
        assert not (tmp_path / "table.txt").exists()
        assert not (tmp_path / "telemetry").exists()

    def test_chaos_strikes_under_the_family_label(self, tmp_path, monkeypatch):
        keys = []
        monkeypatch.setattr(
            sweep, "strike_from_env", lambda point, key: keys.append((point, key))
        )
        toy_sweep(tmp_path, [1])
        toy_sweep(tmp_path, [1])
        assert keys == [
            (POINT_WORKER_CELL, "toy:toy1/a1"), (POINT_WORKER_CELL, "toy:toy1/a2"),
        ]

    def test_wall_rows_merge_by_cell_id(self, tmp_path):
        toy_sweep(tmp_path, [1, 2])
        wall_path = tmp_path / "telemetry" / "wall.json"
        first = json.loads(wall_path.read_text())
        first["cells"][0]["wall_s"] = 7.0
        wall_path.write_text(json.dumps(first))
        toy_sweep(tmp_path, [2, 3])
        wall = json.loads(wall_path.read_text())
        assert [row["cell_id"] for row in wall["cells"]] == [
            "toy1", "toy2", "toy3",
        ]
        assert wall["cells"][0]["wall_s"] == 7.0

    def test_invalid_wall_sidecar_is_replaced(self, tmp_path):
        wall_path = tmp_path / "telemetry" / "wall.json"
        wall_path.parent.mkdir()
        wall_path.write_text('{"schema": "repro-service-wall", "cells": "x"}')
        toy_sweep(tmp_path, [1])
        wall = json.loads(wall_path.read_text())
        assert [row["cell_id"] for row in wall["cells"]] == ["toy1"]


def test_serve_resume_keeps_wall_rows_of_reused_cells(tmp_path, capsys):
    """Run serve over two fleet sizes, drop one published cell, resume:
    the sidecar keeps the reused cell's row next to the recomputed one."""
    argv = ["--runs-dir", str(tmp_path), "--sessions", "8", "12"]
    assert serve_main(argv + ["--run-id", "run"]) == 0
    run_dir = tmp_path / "run"
    (run_dir / "cells" / "n12+s4.json").unlink()
    assert serve_main(argv + ["--resume", "run"]) == 0
    assert "1 reused" in capsys.readouterr().out
    wall = json.loads((run_dir / "telemetry" / "wall.json").read_text())
    assert sorted(row["cell_id"] for row in wall["cells"]) == [
        "n12+s4", "n8+s4",
    ]
