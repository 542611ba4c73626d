"""CLI input hardening: invalid arguments are rejected with a typed
error rendered as one line and exit code 2 -- never a traceback, never a
partially written run directory."""

from __future__ import annotations

import pytest

from repro.service.cli import (
    CliArgumentError,
    _check,
    abrstudy_main,
    faultstudy_main,
    serve_main,
)


class TestCheckHelper:
    def test_raises_typed_error(self):
        with pytest.raises(CliArgumentError, match="nope"):
            _check(False, "nope")
        _check(True, "fine")

    def test_is_a_value_error(self):
        assert issubclass(CliArgumentError, ValueError)


def run_rejected(capsys, main, argv, fragment):
    assert main(argv) == 2
    output = capsys.readouterr().out
    line = [l for l in output.splitlines() if l.startswith("error:")]
    assert len(line) == 1, output
    assert fragment in line[0]


class TestServeRejections:
    def test_zero_sessions(self, tmp_path, capsys):
        run_rejected(capsys, serve_main,
                     ["--runs-dir", str(tmp_path), "--sessions", "0"],
                     "--sessions")
        assert not (tmp_path / "default").exists()

    def test_negative_sessions(self, tmp_path, capsys):
        run_rejected(capsys, serve_main,
                     ["--runs-dir", str(tmp_path), "--sessions", "-3"],
                     "--sessions")

    def test_zero_jobs(self, tmp_path, capsys):
        run_rejected(capsys, serve_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "0"],
                     "--jobs")
        # Jobs the serial backend would ignore are rejected too.
        run_rejected(capsys, serve_main,
                     ["--runs-dir", str(tmp_path), "--backend", "serial",
                      "--jobs", "4"],
                     "--backend fleet")
        run_rejected(capsys, serve_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "2"],
                     "--backend fleet")
        assert not (tmp_path / "default").exists()


class TestFaultstudyRejections:
    def test_zero_sessions(self, tmp_path, capsys):
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--sessions", "0"],
                     "--sessions")

    def test_intensity_out_of_range(self, tmp_path, capsys):
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--intensity", "1.5"],
                     "--intensity")
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--intensity", "-0.1"],
                     "--intensity")

    def test_zero_jobs(self, tmp_path, capsys):
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "0"],
                     "--jobs")
        # Jobs the serial backend would ignore are rejected too.
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--backend", "serial",
                      "--jobs", "4"],
                     "--backend fleet")
        run_rejected(capsys, faultstudy_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "2"],
                     "--backend fleet")
        assert not (tmp_path / "default").exists()


class TestAbrstudyRejections:
    def test_zero_sessions(self, tmp_path, capsys):
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--sessions", "0"],
                     "--sessions")
        assert not (tmp_path / "default").exists()

    def test_nonpositive_bandwidth(self, tmp_path, capsys):
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--bandwidth", "-8"],
                     "--bandwidth")
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--bandwidth", "0"],
                     "--bandwidth")

    def test_empty_ladder(self, tmp_path, capsys):
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--ladder"],
                     "--ladder")

    def test_unknown_rendition(self, tmp_path, capsys):
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--ladder", "r9_nope"],
                     "r9_nope")

    def test_zero_jobs(self, tmp_path, capsys):
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "0"],
                     "--jobs")
        # Jobs the serial backend would ignore are rejected too.
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--backend", "serial",
                      "--jobs", "4"],
                     "--backend fleet")
        run_rejected(capsys, abrstudy_main,
                     ["--runs-dir", str(tmp_path), "--jobs", "2"],
                     "--backend fleet")
        assert not (tmp_path / "default").exists()
