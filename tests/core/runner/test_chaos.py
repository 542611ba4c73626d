"""The deterministic chaos injector: schedules, profiles, parsing."""

from __future__ import annotations

import pytest

from repro.core.runner.chaos import (
    CHAOS_ENV,
    FAULTS,
    POINT_STORE_WRITE,
    POINT_TRACE_STORE,
    POINT_WORKER_CELL,
    PROFILES,
    ChaosError,
    ChaosInjector,
    chaos_from_env,
    parse_chaos_spec,
)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = ChaosInjector(7, PROFILES["heavy"])
        second = ChaosInjector(7, PROFILES["heavy"])
        keys = [f"cell-{i}/a{a}" for i in range(40) for a in (1, 2, 3)]
        schedule_a = [first.fault_at(POINT_WORKER_CELL, key) for key in keys]
        schedule_b = [second.fault_at(POINT_WORKER_CELL, key) for key in keys]
        assert schedule_a == schedule_b
        assert any(fault is not None for fault in schedule_a)

    def test_different_seeds_differ(self):
        keys = [f"cell-{i}/a1" for i in range(60)]
        a = [
            ChaosInjector(1, PROFILES["heavy"]).fault_at(POINT_WORKER_CELL, k)
            for k in keys
        ]
        b = [
            ChaosInjector(2, PROFILES["heavy"]).fault_at(POINT_WORKER_CELL, k)
            for k in keys
        ]
        assert a != b

    def test_attempt_key_gives_fresh_draws(self):
        # The whole retry ladder depends on attempt 2 drawing a different
        # outcome than attempt 1 for the same cell.
        injector = ChaosInjector(0, PROFILES["kills"])
        outcomes = {
            injector.fault_at(POINT_WORKER_CELL, f"cell-7/a{a}")
            for a in range(1, 30)
        }
        assert outcomes == {None, "kill"}

    def test_faults_only_at_profiled_points(self):
        injector = ChaosInjector(3, PROFILES["kills"])
        for i in range(50):
            assert injector.fault_at(POINT_STORE_WRITE, f"k{i}") is None

    def test_known_faults_only(self):
        injector = ChaosInjector(11, PROFILES["heavy"])
        for i in range(100):
            fault = injector.fault_at(POINT_WORKER_CELL, f"cell/{i}")
            assert fault is None or fault in FAULTS


class TestMangleBytes:
    def _torn_key(self, injector, point) -> str:
        for i in range(1000):
            if injector.fault_at(point, f"k{i}") == "torn_write":
                return f"k{i}"
        raise AssertionError("no torn_write draw in 1000 keys")

    def test_scheduled_tear_corrupts_deterministically(self):
        injector = ChaosInjector(5, PROFILES["io"])
        key = self._torn_key(injector, POINT_STORE_WRITE)
        data = b"x" * 256
        mangled = injector.mangle_bytes(POINT_STORE_WRITE, key, data)
        assert mangled != data
        assert mangled == injector.mangle_bytes(POINT_STORE_WRITE, key, data)

    def test_unscheduled_data_passes_through(self):
        injector = ChaosInjector(5, PROFILES["io"])
        for i in range(200):
            key = f"k{i}"
            if injector.fault_at(POINT_STORE_WRITE, key) is None:
                data = b"payload"
                assert (
                    injector.mangle_bytes(POINT_STORE_WRITE, key, data)
                    == data
                )
                return
        raise AssertionError("no clean draw found")

    def test_empty_data_never_mangled(self):
        injector = ChaosInjector(5, PROFILES["io"])
        key = self._torn_key(injector, POINT_STORE_WRITE)
        assert injector.mangle_bytes(POINT_STORE_WRITE, key, b"") == b""


class TestIoError:
    def test_scheduled_io_error_raises_oserror_subtype(self):
        injector = ChaosInjector(5, PROFILES["io"])
        for i in range(1000):
            key = f"k{i}"
            if injector.fault_at(POINT_TRACE_STORE, key) == "io_error":
                with pytest.raises(ChaosError) as excinfo:
                    injector.maybe_io_error(POINT_TRACE_STORE, key)
                assert isinstance(excinfo.value, OSError)
                assert "seed=5" in str(excinfo.value)
                return
        raise AssertionError("no io_error draw in 1000 keys")


class TestSpecParsing:
    def test_seed_and_profile(self):
        injector = parse_chaos_spec("42:heavy")
        assert injector.seed == 42
        assert injector.profile.name == "heavy"

    def test_default_profile_is_light(self):
        assert parse_chaos_spec("9").profile.name == "light"

    def test_empty_and_none_disable(self):
        assert parse_chaos_spec("") is None
        assert parse_chaos_spec("5:none") is None

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="<seed>"):
            parse_chaos_spec("not-a-seed:kills")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            parse_chaos_spec("3:tornado")

    def test_env_arming_and_cache(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "13:kills")
        injector = chaos_from_env()
        assert injector is not None and injector.seed == 13
        assert chaos_from_env() is injector  # cached for the same spec
        monkeypatch.setenv(CHAOS_ENV, "14:kills")
        assert chaos_from_env().seed == 14
        monkeypatch.delenv(CHAOS_ENV)
        assert chaos_from_env() is None
