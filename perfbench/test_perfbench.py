"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

The workload smokes run each workload at a tiny size and require the
traced decomposition to reproduce the untraced output digests.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs.spans import SpanTracer  # noqa: E402
from tracing import count, durations_s, layer_self_s, percentile, total_s  # noqa: E402


@pytest.fixture(autouse=True)
def _no_repro_knobs(monkeypatch):
    for name in [n for n in run.os.environ if n.startswith("REPRO_") and n != "REPRO_KERNEL_CACHE"]:
        monkeypatch.delenv(name)


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert percentile([7.5], 99) == 7.5
    assert percentile([1, 2, 3, 4], 50) == 2


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 101), ([1.0], -1)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def _fake_clock(*seconds):
    """A tracer clock that returns the given times (s), as ns, in turn."""
    ticks = iter([0, *(int(t * 1e9) for t in seconds)])  # the first is the epoch
    return lambda: next(ticks)


def test_layer_self_s_subtracts_child_time_by_layer():
    tracer = SpanTracer("r", clock=_fake_clock(0, 1, 1.5, 2.5, 3, 4, 7, 10))
    with tracer.span("bench.root"):
        with tracer.span("codec.a"):
            with tracer.span("codec.c"):
                pass
        with tracer.span("memsim.b"):
            pass
    totals = layer_self_s(tracer.records())
    assert totals == pytest.approx({"bench": 5.0, "codec": 2.0, "memsim": 3.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_span_helpers_read_durations_and_counts():
    tracer = SpanTracer("run-1", clock=_fake_clock(0, 1, 2, 4, 7, 9))
    with tracer.span("bench.root"):
        with tracer.span("trace.record", {"events": 3}) as span:
            span.attrs["batches"] = 2
        with tracer.span("trace.record", {"events": 4}):
            pass
    first, second, root = records = tracer.records()
    assert root.parent_id is None and first.parent_id == second.parent_id == root.span_id
    assert {r.proc for r in records} == {"run-1"}
    assert count(records, "events") == 7 and count(records, "batches") == 2
    assert durations_s(records, "trace.record") == pytest.approx([1.0, 3.0])
    assert total_s(records, "trace.record") == pytest.approx(4.0)


def test_host_speed_weights_each_gap_by_the_probe_that_ends_it():
    ref = hostspeed.REFERENCE_PROBE_S
    now = [0.0]
    host = hostspeed.HostSpeed(clock=lambda: now[0])
    mark = host.mark()
    # Program time 0-1 s at reference speed, a probe 1-1.1 s, program
    # time 1.1-3.1 s at half speed, a probe 3.1-3.2 s, then 3.2-4.2 s.
    host.probes += [(1.0, 1.1, ref), (3.1, 3.2, 2 * ref)]
    now[0] = 4.2
    wall, scaled = host.since(mark)
    assert wall == pytest.approx(4.2)
    assert scaled == pytest.approx(1.0 + 2.0 / 2 + 1.0 / 2)
    # A stretch with no probe of its own takes the last probe's speed.
    mark = host.mark()
    now[0] = 5.2
    assert host.since(mark) == pytest.approx((1.0, 0.5))


def test_host_speed_samples_while_active_and_then_disarms():
    with hostspeed.HostSpeed() as host:
        mark = host.mark()
        deadline = time.process_time() + 0.5
        while time.process_time() < deadline:
            pass
        wall, scaled = host.since(mark)
    assert len(host.probes) >= 5
    assert wall > 0.5 and scaled > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is not host._on_timer


def test_checker_flags_pinned_and_repeat_mismatches():
    checker = run.Checker(period=2, pinned=["a", "b"])
    assert checker.check(0, "a") is None
    assert checker.check(3, "b") is None
    assert "pinned" in checker.check(2, "x")
    unpinned = run.Checker(period=1, pinned=None)
    assert unpinned.check(0, "a") is None
    assert "earlier" in unpinned.check(1, "b")


def test_pinned_digests_cover_every_workload():
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(pinned) == {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name, digests in pinned.items():
        assert len(digests) == workloads.WORKLOADS[name]().traced_cycles
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)


def test_result_line_has_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {metric["name"]: 1.5 for metric in spec}
    result = json.loads(run._result_line(True, 3, 0, values, spec))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    with pytest.raises(RuntimeError):
        run._result_line(True, 3, 0, {}, spec)


TINY = {
    "tables": lambda: workloads.Tables(64, 48),
    "replay": lambda: workloads.Replay(64, 48),
    "codec": lambda: workloads.Codec(64, 48, n_frames=4),
    "serve": lambda: workloads.Serve(n_sessions=8, n_cells=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_decomposition_reproduces_untraced_digests(name):
    workload = TINY[name]()
    seed = 3
    state = workload.setup(seed)
    untraced = [workload.cycle(state, index).digest for index in range(workload.traced_cycles)]
    assert workload.cycle(state, 0).digest == untraced[0]  # deterministic
    tracer = SpanTracer("smoke")
    traced = workload.traced(state, seed, tracer)
    assert traced.failures == []
    assert traced.digests == untraced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(traced.metrics) <= {m["name"] for m in spec["per_layer"]}
    assert all(r.name.split(".", 1)[0] in run.LAYERS for r in tracer.records())


def test_inputs_follow_the_seed():
    workload = TINY["codec"]()
    first = workload.cycle(workload.setup(1), 0).digest
    assert workload.cycle(workload.setup(1), 0).digest == first
    assert workload.cycle(workload.setup(2), 0).digest != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error:" in proc.stderr
