"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; every ``REPRO_*`` knob is cleared first, so an inherited trace
cache, job count, engine choice or chaos profile cannot change what is
measured, and the C kernels are built into ``.bench_build/`` at the
root.  Numbers are refused (non-zero exit, no result) if either C kernel
fell back to Python/NumPy, because that run measures another program.

With ``--trace 0`` the workload is set up ``SETUP_REPEATS`` times, then
timed cycles run for about ``--seconds`` (at least one; none is started
that would end later), and the end-to-end metrics are printed.  Their
times are host-normalized by :class:`hostspeed.HostSpeed`, which samples
the host's speed from the start of the process.  With ``--trace 1`` it
is set up once, runs its untraced cycles once, then the traced
decomposition; the traced outputs must equal the
untraced ones, and the per-layer metrics are printed.  The last line of
standard output is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the cycle times, output
digests and provenance.  Metric names and units come from
``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed, WallClock  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Seed whose output digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0
SETUP_REPEATS = 3
#: Layers of the program, by module name, for per-layer self time.
LAYERS = ("video", "codec", "trace", "memsim", "core", "transport", "service")


def isolate_environment(root: Path) -> list[str]:
    """Clear every ``REPRO_*`` knob and keep build output in the checkout.

    Returns the names of the knobs that were set.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    build = root / ".bench_build"
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "kernels")
    # The C compiler's temporary files too.
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(build / "tmp")
    return cleared


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _result_line(correct, attempted, failed, values: dict, spec: list) -> str:
    units = {metric["name"]: metric["unit"] for metric in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


class Checker:
    """Output checks shared by every cycle of a run.

    A cycle index maps to a slot (``index % period``); every cycle of a
    slot must give the same digest, and for the default seed it must be
    the pinned one.
    """

    def __init__(self, period: int, pinned: list[str] | None) -> None:
        self.period = period
        self.pinned = pinned
        self.seen: dict[int, str] = {}

    def check(self, index: int, digest: str) -> str | None:
        slot = index % self.period
        if self.pinned is not None and digest != self.pinned[slot]:
            return f"cycle {index}: digest {digest} differs from the pinned {self.pinned[slot]}"
        first = self.seen.setdefault(slot, digest)
        if digest != first:
            return f"cycle {index}: digest {digest} differs from an earlier run of the same input"
        return None


def run_cycles(workload, state, checker, clock, indices, seconds=0.0):
    """Run untraced cycles; yields ``(index, wall_s, scaled_s, cycle or None, problem)``.

    Runs ``indices`` cycles, then more for as long as one more cycle, as
    long as the last, would end within ``seconds`` of the start.
    ``scaled_s`` is the cycle's time by ``clock`` (a :class:`HostSpeed`
    or a :class:`WallClock`).
    """
    index = 0
    begin = time.perf_counter()
    wall = 0.0
    while index < indices or time.perf_counter() - begin + wall <= seconds:
        mark = clock.mark()
        try:
            cycle = workload.cycle(state, index)
            problem = checker.check(index, cycle.digest)
        except Exception:
            traceback.print_exc()
            cycle, problem = None, f"cycle {index} raised"
        wall, scaled = clock.since(mark)
        yield index, wall, scaled, cycle, problem
        index += 1


def provenance(cleared: list[str]) -> dict:
    import numpy

    from repro.provenance import run_metadata

    meta = run_metadata()
    meta.update(
        nproc=os.cpu_count(),
        numpy=numpy.__version__,
        kernels={"memsim": True, "sad": True},
        cleared_knobs=cleared,
        kernel_cache=os.environ["REPRO_KERNEL_CACHE"],
    )
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0", 2)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)
    # An untraced run samples the host's speed from here on; a traced
    # run's spans and tracing overhead are wall time.
    with WallClock() if args.trace else HostSpeed() as clock:
        return _run(args, clock)


def _run(args, clock) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        return _fail(f"cannot read BENCHMARK.json: {error}", 2)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"the program's source is not at {ROOT / 'src'}", 2)
    cleared = isolate_environment(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from repro.codec.batched import sad_kernel_available
        from repro.memsim.fastpath import kernel_available
        from repro.obs.spans import SpanTracer
        from tracing import layer_self_s
    except ImportError as error:
        return _fail(f"cannot import the program under test: {error}", 2)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", 2)
    if not (kernel_available() and sad_kernel_available()):
        return _fail("a C kernel fell back to Python/NumPy; refusing to report numbers", 3)
    _, import_s = clock.since((_START, 0))

    workload = workloads.WORKLOADS[args.workload]()
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((BENCH_DIR / "pinned.json").read_text()).get(workload.name)
    checker = Checker(workload.traced_cycles, pinned)
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        state = None  # so that only one set-up's state is ever held
        mark = clock.mark()
        state = workload.setup(args.seed)
        setup_times.append(clock.since(mark)[1])

    attempted = failed = 0
    problems = []
    walls, times, items, digests = [], [], [], {}
    if args.trace:
        cycles = run_cycles(workload, state, checker, clock, workload.traced_cycles)
    else:
        cycles = run_cycles(workload, state, checker, clock, 1, args.seconds)
    for index, wall, scaled, cycle, problem in cycles:
        attempted += workload.ops
        digests.setdefault(index % checker.period, None if cycle is None else cycle.digest)
        if problem:
            failed += workload.ops
            problems.append(problem)
        if cycle is not None:
            walls.append(wall)
            times.append(scaled)
            items.append(cycle.items)
    if not walls:
        for problem in problems:
            print(problem, file=sys.stderr)
        return _fail("no cycle completed", 1)

    if args.trace:
        tracer = SpanTracer(proc_label=f"{workload.name}-{args.seed}-{os.getpid()}")
        start = time.perf_counter()
        attempted += workload.ops * workload.traced_cycles
        try:
            with tracer.span(f"bench.{workload.name}"):
                traced = workload.traced(state, args.seed, tracer)
        except Exception:
            traceback.print_exc()
            return _fail("the traced decomposition raised", 1)
        traced_wall = time.perf_counter() - start
        mismatched = [
            f"traced cycle {index}: outputs differ from the untraced cycle"
            for index in range(workload.traced_cycles)
            if index >= len(traced.digests) or traced.digests[index] != digests.get(index)
        ]
        problems += traced.failures + mismatched
        if traced.failures or mismatched:
            failed += workload.ops * workload.traced_cycles
        values = {metric["name"]: 0 for metric in spec["per_layer"]}
        values.update(traced.metrics)
        if tracer.dropped_spans:
            return _fail(f"{tracer.dropped_spans} spans fell out of the tracer's buffer", 1)
        layer_self = layer_self_s(tracer.records())
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        untraced = sum(walls)
        values["tracing_overhead_frac"] = (traced_wall - traced.shadow_s - untraced) / untraced
        metric_spec = spec["per_layer"]
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cycle_s": statistics.median(times),
            "items_per_s": sum(items) / sum(times),
        }
        metric_spec = spec["end_to_end"]

    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "cycle_walls": walls,
        "cycle_times": times,
        "digests": [digests[slot] for slot in sorted(digests)],
        "pinned": pinned is not None,
        "provenance": provenance(cleared),
    }))
    print(_result_line(failed == 0, attempted, failed, values, metric_spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
