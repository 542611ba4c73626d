"""Deterministic chaos fault injection for the study orchestration layer.

PR 2's bitstream fuzzer proved the *codec* survives hostile bits; this
module applies the same replayable-from-a-seed discipline to the
*orchestrator*: worker kills, process freezes, runaway spins, transient
I/O errors, and torn artifact writes, injected at named points in the
supervised pool, the trace cache, and the study cell store.

Activation: ``REPRO_CHAOS=<seed>[:<profile>]`` (e.g. ``REPRO_CHAOS=7:kills``).
Unset (or profile ``none``) means every injection point is a no-op.

Every draw is a pure function of ``(seed, profile, point, key)`` -- no
process-local counters -- so a schedule is identical across processes,
independent of execution order, and replayable from the seed alone.  The
``key`` carries the caller's context (typically ``"<cell-id>/a<attempt>"``),
which is why retries of a faulted operation draw fresh outcomes: attempt 1
may be killed while attempt 2 runs clean, exactly the transient-failure
shape the supervisor's retry ladder exists to absorb.

Fault kinds
-----------

- ``kill``:  the worker SIGKILLs itself (crash without cleanup);
- ``stop``:  the worker SIGSTOPs itself (a frozen process -- heartbeats
  go stale; the supervisor must detect and replace it);
- ``spin``:  the worker burns wall clock past its budget (a hang the
  watchdog deadline must cut short);
- ``io_error``: a transient ``OSError`` out of a persistence call;
- ``torn_write``: the published artifact bytes are truncated/corrupted
  (must be caught by content digests at read-back, never trusted).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass

#: Environment variable arming the injector: ``<seed>[:<profile>]``.
CHAOS_ENV = "REPRO_CHAOS"

#: Fault kinds an injection point can draw.
FAULTS = ("kill", "stop", "spin", "io_error", "torn_write")

#: Named injection points (prefix-matched by profile rules).
POINT_WORKER_CELL = "runner.worker.cell"
POINT_TRACE_LOAD = "trace.cache.load"
POINT_TRACE_STORE = "trace.cache.store"
#: Every record the cell store (:func:`repro.core.sweep.publish`) writes.
POINT_STORE_WRITE = "store.write"


class ChaosError(OSError):
    """The injected transient I/O failure (an ``OSError`` subtype, so it
    travels the same except-paths a real flaky filesystem would)."""


@dataclass(frozen=True)
class ChaosProfile:
    """A named set of ``(point-prefix, fault, probability)`` rules."""

    name: str
    rules: tuple[tuple[str, str, float], ...]

    def rules_for(self, point: str):
        return [
            (fault, probability)
            for prefix, fault, probability in self.rules
            if point.startswith(prefix)
        ]


PROFILES = {
    "none": ChaosProfile("none", ()),
    # Worker-process failures only: the kill-and-resume smoke profile.
    "kills": ChaosProfile(
        "kills",
        ((POINT_WORKER_CELL, "kill", 0.45),),
    ),
    # Persistence failures only: transient I/O errors plus torn writes.
    "io": ChaosProfile(
        "io",
        (
            ("trace.cache.", "io_error", 0.20),
            (POINT_STORE_WRITE, "io_error", 0.20),
            (POINT_STORE_WRITE, "torn_write", 0.20),
        ),
    ),
    # A little of everything, at rates a 3-attempt ladder usually clears.
    "light": ChaosProfile(
        "light",
        (
            (POINT_WORKER_CELL, "kill", 0.10),
            (POINT_WORKER_CELL, "spin", 0.05),
            ("trace.cache.", "io_error", 0.05),
            (POINT_STORE_WRITE, "io_error", 0.05),
            (POINT_STORE_WRITE, "torn_write", 0.05),
        ),
    ),
    # High rates across every point: quarantines are expected, silent
    # corruption still is not.
    "heavy": ChaosProfile(
        "heavy",
        (
            (POINT_WORKER_CELL, "kill", 0.25),
            (POINT_WORKER_CELL, "stop", 0.10),
            (POINT_WORKER_CELL, "spin", 0.10),
            ("trace.cache.", "io_error", 0.15),
            (POINT_STORE_WRITE, "io_error", 0.15),
            (POINT_STORE_WRITE, "torn_write", 0.15),
        ),
    ),
}


class ChaosInjector:
    """Draws faults as a pure function of ``(seed, profile, point, key)``."""

    def __init__(self, seed: int, profile: ChaosProfile) -> None:
        self.seed = seed
        self.profile = profile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosInjector(seed={self.seed}, profile={self.profile.name!r})"

    def _draw(self, point: str, key: str, salt: str = "") -> float:
        blob = f"{self.seed}:{self.profile.name}:{point}:{key}:{salt}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def fault_at(self, point: str, key: str) -> str | None:
        """The fault scheduled at ``(point, key)``, or None.

        One uniform draw is compared against the point's cumulative rule
        probabilities, so at most one fault fires per (point, key) and
        the schedule is inspectable without side effects -- the chaos
        sweep uses this to predict what each case should have suffered.
        """
        rules = self.profile.rules_for(point)
        if not rules:
            return None
        draw = self._draw(point, key)
        cumulative = 0.0
        for fault, probability in rules:
            cumulative += probability
            if draw < cumulative:
                return fault
        return None

    # -- execution-point faults (worker processes) -------------------------

    def strike(self, point: str, key: str, spin_seconds: float = 30.0) -> None:
        """Suffer the scheduled fault at an execution point, if any.

        ``kill``/``stop`` act on the calling process; ``spin`` burns wall
        clock (sleeping in short slices so a SIGKILL lands promptly).
        I/O faults are ignored here -- they belong to persistence points.
        """
        fault = self.fault_at(point, key)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "stop":
            os.kill(os.getpid(), signal.SIGSTOP)
        elif fault == "spin":
            deadline = time.monotonic() + spin_seconds
            while time.monotonic() < deadline:
                time.sleep(0.05)

    # -- persistence-point faults ------------------------------------------

    def maybe_io_error(self, point: str, key: str) -> None:
        """Raise the injected transient ``OSError``, if one is scheduled."""
        if self.fault_at(point, key) == "io_error":
            raise ChaosError(
                f"chaos: injected I/O error at {point} [{key}] "
                f"(seed={self.seed}, profile={self.profile.name})"
            )

    def mangle_bytes(self, point: str, key: str, data: bytes) -> bytes:
        """Return ``data`` torn/corrupted if a torn write is scheduled."""
        if self.fault_at(point, key) != "torn_write" or not data:
            return data
        style = self._draw(point, key, salt="style")
        if style < 0.5:
            # Torn write: only a prefix reached the disk.
            cut = 1 + int(self._draw(point, key, salt="cut") * (len(data) - 1))
            return data[:cut]
        # Bit rot: one byte flipped in place.
        index = int(self._draw(point, key, salt="index") * len(data)) % len(data)
        flipped = data[index] ^ (1 + int(self._draw(point, key, salt="bit") * 254))
        return data[:index] + bytes([flipped]) + data[index + 1 :]


def parse_chaos_spec(spec: str) -> ChaosInjector | None:
    """Parse ``<seed>[:<profile>]``; empty/``none`` disables injection."""
    spec = spec.strip()
    if not spec:
        return None
    seed_text, _, profile_name = spec.partition(":")
    profile_name = profile_name or "light"
    try:
        seed = int(seed_text)
    except ValueError as error:
        raise ValueError(
            f"{CHAOS_ENV} must look like '<seed>[:<profile>]', got {spec!r}"
        ) from error
    if profile_name not in PROFILES:
        raise ValueError(
            f"{CHAOS_ENV} profile must be one of {sorted(PROFILES)}, "
            f"got {profile_name!r}"
        )
    if profile_name == "none":
        return None
    return ChaosInjector(seed, PROFILES[profile_name])


_cached_spec: str | None = None
_cached_injector: ChaosInjector | None = None


def chaos_from_env() -> ChaosInjector | None:
    """The injector armed by ``REPRO_CHAOS``, or None (cached per spec).

    Worker processes inherit the environment at fork/spawn time, so the
    same schedule is active in every process of a run.
    """
    global _cached_spec, _cached_injector
    spec = os.environ.get(CHAOS_ENV, "")
    if spec != _cached_spec:
        _cached_spec = spec
        _cached_injector = parse_chaos_spec(spec)
    return _cached_injector


def strike_from_env(point: str, key: str) -> None:
    """Module-level convenience for execution points (no-op when unarmed)."""
    injector = chaos_from_env()
    if injector is not None:
        injector.strike(point, key)
