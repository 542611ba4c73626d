"""Atomic writes: publish-or-nothing semantics, with and without chaos."""

from __future__ import annotations

import pytest

from repro.core.runner.chaos import POINT_STORE_WRITE, ChaosInjector, PROFILES
from repro.ioutil import atomic_write, sha256_hex


class TestSha256Hex:
    def test_stable_known_value(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_str_encodes_utf8(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write(target, "café\n")
        assert target.read_bytes() == "café\n".encode("utf-8")

    def test_overwrites_previous_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write(target, "old")
        atomic_write(target, "new")
        assert target.read_text() == "new"

    def test_creates_missing_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "artifact.txt"
        atomic_write(target, "x")
        assert target.read_text() == "x"

    def test_no_tmp_files_left_behind(self, tmp_path):
        atomic_write(tmp_path / "a.txt", "x")
        atomic_write(tmp_path / "a.txt", "y")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


class TestChaosIntegration:
    def _key_for(self, injector, fault):
        for i in range(2000):
            if injector.fault_at(POINT_STORE_WRITE, f"k{i}") == fault:
                return f"k{i}"
        raise AssertionError(f"no {fault} draw found")

    def test_injected_io_error_leaves_no_trace(self, tmp_path, monkeypatch):
        injector = ChaosInjector(5, PROFILES["io"])
        key = self._key_for(injector, "io_error")
        monkeypatch.setenv("REPRO_CHAOS", "5:io")
        target = tmp_path / "artifact.bin"
        with pytest.raises(OSError, match="chaos"):
            atomic_write(
                target, b"data", chaos_point=POINT_STORE_WRITE,
                chaos_key=key,
            )
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray .tmp files

    def test_injected_torn_write_is_digest_detectable(
        self, tmp_path, monkeypatch
    ):
        injector = ChaosInjector(5, PROFILES["io"])
        key = self._key_for(injector, "torn_write")
        monkeypatch.setenv("REPRO_CHAOS", "5:io")
        target = tmp_path / "artifact.bin"
        data = b"intended content" * 8
        atomic_write(
            target, data, chaos_point=POINT_STORE_WRITE, chaos_key=key
        )
        published = target.read_bytes()
        assert published != data
        # The caller's defense: digests computed from in-memory bytes.
        assert sha256_hex(published) != sha256_hex(data)

    def test_unarmed_chaos_point_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        target = tmp_path / "artifact.bin"
        atomic_write(
            target, b"data", chaos_point=POINT_STORE_WRITE, chaos_key="k"
        )
        assert target.read_bytes() == b"data"
