"""Host-speed sampling: seconds of work at a reference host speed.

The host the benchmark was tuned on is a 2-vCPU VM whose speed changes
with contention from outside it: each vCPU switches between a fast and a
slow state within seconds, and phases of minutes run up to 1.7x slower
than others.  Wall time then measures the host as much as the program.

:class:`HostSpeed` runs a fixed probe of about 2 ms from a ``SIGPROF``
interval timer, every ``INTERVAL_S`` of the process's CPU time, in the
main thread between the program's bytecodes.  Each probe's time says how
fast the host ran just before it.  For a measured stretch, every gap of
program time between two probes is weighted by ``REFERENCE_PROBE_S``
over the probe that ends it, and the probes' own time is left out.  The
result is seconds of work at the reference speed: a change to the
program moves it as it moves wall time, and a change in host speed
moves it far less.
"""

from __future__ import annotations

import gc
import json
import signal
import time

import numpy as np

#: Typical probe time on the 2-vCPU host the benchmark was tuned on;
#: scaled times are seconds at that host speed.
REFERENCE_PROBE_S = 0.0018
INTERVAL_S = 0.05

_RECORD = {f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(40)}
_BLOCK = np.arange(64, dtype=np.int32).reshape(8, 8)
_BASIS = np.cos(np.outer(np.arange(8), np.arange(8)) * 0.1)


class _Item:
    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


def probe() -> None:
    """A fixed mix of the kinds of work the program does.

    An interpreter loop with dict stores, a NumPy allocation, JSON, method
    calls, sorting, and small NumPy calls on 8x8 blocks.  A probe of one
    kind alone tracks the program less well: on ten ``serve`` runs
    whose wall times spread 0.23, an integer loop left 0.10 and this mix
    0.05.
    """
    total, table = 0, {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    array = np.arange(25000, dtype=np.int32)
    array *= 3
    array += 1
    array.sum()
    json.loads(json.dumps(_RECORD))
    sum(item.get() for item in [_Item(i) for i in range(300)])
    counts: dict[str, int] = {}
    for word in sorted((str(i * 7919 % 1000) for i in range(300)), key=len):
        counts[word] = counts.get(word, 0) + 1
    for i in range(40):
        np.clip(_BASIS @ ((_BLOCK + i) >> 1) @ _BASIS.T, -255, 255).sum()


def timed_probe() -> tuple[float, float, float]:
    """``(start, end, probe_s)``: an untimed probe, so that the caches the
    program left cold do not count, then a timed one.  The garbage
    collector is held off meanwhile, so that neither the program's heap
    nor a collection it owes is timed as host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        timed = time.perf_counter()
        probe()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end, end - timed


class HostSpeed:
    """Samples host speed while active (a context manager).

    ``mark()`` starts a stretch; ``since(mark)`` gives its wall seconds and
    its scaled seconds (see the module's docstring).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: :func:`timed_probe` results, in order.
        self.probes: list[tuple[float, float, float]] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        self.probes.append(timed_probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[float, int]:
        return self.clock(), len(self.probes)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """``(wall_s, scaled_s)`` of the stretch begun at ``mark``.

        The stretch after its last probe takes that probe's speed.  A
        stretch without a probe of its own takes the speed of the last
        probe before it, or of one run now if there is none.
        """
        begin, first = mark
        end = self.clock()
        probes = self.probes[first:]
        if not probes:
            if not self.probes:
                self.probes.append(timed_probe())
            # Its time lies outside the stretch; only its speed is used.
            return end - begin, (end - begin) * REFERENCE_PROBE_S / self.probes[-1][2]
        scaled, cursor = 0.0, begin
        for start, stop, probe_s in probes:
            scaled += max(start - cursor, 0.0) * REFERENCE_PROBE_S / probe_s
            cursor = stop
        scaled += max(end - cursor, 0.0) * REFERENCE_PROBE_S / probes[-1][2]
        return end - begin, scaled


class WallClock:
    """:class:`HostSpeed`'s interface without sampling: scaled time is
    wall time."""

    def __enter__(self) -> "WallClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), 0

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        wall = time.perf_counter() - mark[0]
        return wall, wall
