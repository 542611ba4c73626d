"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (untimed,
counted as set-up), runs one timed *cycle* of public calls with tracing
off in :meth:`cycle`, and repeats the same calls one layer at a time
under a :class:`repro.obs.spans.SpanTracer` in :meth:`traced`.  Every
cycle returns a digest of its outputs; the traced decomposition must
return the same digests as the untraced cycles it mirrors.

- ``tables``: one cold paper-grid cell (paper path unit of work).
- ``replay``: one recorded decode trace replayed into both memsim engines.
- ``codec``: untraced batched encode then decode of a 30-frame sequence.
- ``serve``: 100-session ``repro serve`` cells, each with a cold encode
  cache.

The constructors' arguments size a workload; the defaults are the sizes
the benchmark runs, and the tests use tiny ones.  ``tables`` and
``replay`` run at the study's ``quick`` scale, ``serve`` at the service's
default configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.codec.errors import BitstreamError
from repro.core.experiments import SCALES
from repro.core.machines import STUDY_MACHINES
from repro.core.metrics import compute_report
from repro.core.platforms import EXTENDED_PLATFORMS
from repro.core.study import (
    PAPER_BITRATE,
    PAPER_FRAME_RATE,
    VoInput,
    Workload,
    characterize_decode,
    characterize_encode,
    replay_into_machines,
)
from repro.obs.spans import SpanTracer
from repro.service.config import DEFAULT_CONFIG
from repro.service.scheduler import schedule_fleet
from repro.service.session import (
    _codec_config as session_codec_config,
    _frames_digest as frames_digest,
    build_fleet,
    execute_session,
    reset_encode_cache,
    scene_spec_for_variant,
)
from repro.service.study import ServeCell, run_cell
from repro.trace.persistence import TraceCapture
from repro.trace.recorder import TraceRecorder
from repro.transport.pipeline import TransportConfig, transmit_stream
from repro.video.synthesis import SceneSpec, SyntheticScene

from tracing import count, durations_s, percentile, total_s

#: The paper's codec settings (Section 3.1).
PAPER_QP, PAPER_GOP, PAPER_M = 10, 12, 3
#: Study scale of ``tables`` and ``replay``.
SCALE = SCALES["quick"]


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


@dataclass
class Cycle:
    """Outcome of one timed cycle."""

    digest: str
    #: Work units done, for ``items_per_s``.
    items: float


@dataclass
class Traced:
    """Outcome of a traced decomposition."""

    #: One digest per untraced cycle index it mirrors (0, 1, ...).
    digests: list[str]
    #: Per-layer metrics measured by this workload.
    metrics: dict[str, float]
    #: Seconds spent in calls the untraced cycles do not make (inputs
    #: rebuilt for the decomposition, side calls on the same inputs);
    #: excluded from the tracing overhead.
    shadow_s: float = 0.0
    failures: list[str] = field(default_factory=list)


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """sha256 of a canonical JSON rendering of ``value``."""
    text = json.dumps(value, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def scene_frames(width: int, height: int, n_frames: int, seed: int):
    """The study's one-object scene with its background drawn from ``seed``."""
    spec = dataclasses.replace(
        SceneSpec.default(width, height, 1), background_seed=seed
    )
    scene = SyntheticScene(spec)
    return [scene.frame(index) for index in range(n_frames)]


def paper_codec_config(width: int, height: int) -> CodecConfig:
    return CodecConfig(
        width, height, qp=PAPER_QP, gop_size=PAPER_GOP, m_distance=PAPER_M,
        target_bitrate=PAPER_BITRATE, frame_rate=PAPER_FRAME_RATE,
    )


def _replay_digest(replayed) -> dict:
    """Total and per-phase counters of every study machine."""
    return {
        label: {"total": total, "phases": phases}
        for label, (total, phases) in replayed.items()
    }


def _check_frames_equal(decoded, reference, what: str) -> None:
    if len(decoded) != len(reference):
        raise CheckFailed(f"{what}: {len(decoded)} frames, expected {len(reference)}")
    for index, (got, want) in enumerate(zip(decoded, reference)):
        for plane in ("y", "u", "v"):
            if not np.array_equal(getattr(got, plane), getattr(want, plane)):
                raise CheckFailed(f"{what}: frame {index} plane {plane} differs")


class Tables:
    """One cold paper-grid cell: 1 VO, 1 layer, traced encode and decode."""

    name = "tables"
    ops = 2  # characterize_encode, characterize_decode
    traced_cycles = 1

    def __init__(self, width: int = 720, height: int = 576):
        self.workload = Workload(
            name=f"{width}x{height}-1vo-1l", width=width, height=height,
            n_frames=SCALE.n_frames,
        )

    def setup(self, seed: int) -> VoInput:
        w = self.workload
        return VoInput(
            vo_id=0,
            config=paper_codec_config(w.width, w.height),
            frames=scene_frames(w.width, w.height, w.n_frames, seed),
            masks=None,
        )

    def cycle(self, vo: VoInput, index: int) -> Cycle:
        sampling = SCALE.sampling()
        encode = characterize_encode(
            self.workload, STUDY_MACHINES, sampling, inputs=[vo], jobs=1
        )
        decode = characterize_decode(
            self.workload, encoded=encode.encoded, machines=STUDY_MACHINES,
            sampling=sampling, jobs=1,
        )
        outputs = {
            "stream": encode.encoded[0].data,
            "encode": self._result_digest(encode),
            "decode": self._result_digest(decode),
        }
        return Cycle(digest(outputs), items=2 * self.workload.n_frames)

    @staticmethod
    def _result_digest(result) -> dict:
        return {
            "scale": result.scale,
            "counters": result.raw_counters,
            "reports": result.reports,
            "phase_reports": result.phase_reports,
        }

    def _replay_and_report(self, tracer: SpanTracer, batches, scale: float) -> dict:
        """The replay and report half of a cell, one layer at a time."""
        with tracer.span("memsim.study_replay"):
            replayed = replay_into_machines(batches, STUDY_MACHINES, jobs=1)
        with tracer.span("core.report"):
            reports, phase_reports, counters = {}, {}, {}
            for machine in STUDY_MACHINES:
                total, phases = replayed[machine.label]
                counters[machine.label] = total
                reports[machine.label] = compute_report(total, machine, scale)
                for phase, phase_counters in phases.items():
                    phase_reports.setdefault(phase, {})[machine.label] = (
                        compute_report(phase_counters, machine, scale)
                    )
        return {
            "scale": scale, "counters": counters, "reports": reports,
            "phase_reports": phase_reports,
        }

    def traced(self, state: VoInput, seed: int, tracer: SpanTracer) -> Traced:
        sampling = SCALE.sampling()
        # The decomposition rebuilds the set-up's inputs, so that the
        # video layer is measured too.
        with tracer.span("video.synth"):
            vo = self.setup(seed)

        with tracer.span("trace.record_encode") as span:
            capture = TraceCapture()
            recorder = TraceRecorder([capture], sampling)
            encoded = VopEncoder(
                vo.config, recorder, "vo0.vol0", vo_id=0, walk_tables=True
            ).encode_sequence(vo.frames, vo.masks)
            encode_batches = [batch.collapsed() for batch in capture.batches]
            span.attrs["events"] = sum(b.n_events for b in encode_batches)
            span.attrs["batches"] = len(encode_batches)
        encode_out = self._replay_and_report(
            tracer, encode_batches, recorder.scale_factor()
        )

        with tracer.span("trace.record_decode") as span:
            capture = TraceCapture()
            recorder = TraceRecorder([capture], sampling)
            VopDecoder(recorder, "dec.vo0.vol0", walk_tables=True).decode_sequence(
                encoded.data
            )
            decode_batches = [batch.collapsed() for batch in capture.batches]
            span.attrs["events"] = sum(b.n_events for b in decode_batches)
            span.attrs["batches"] = len(decode_batches)
        decode_out = self._replay_and_report(
            tracer, decode_batches, recorder.scale_factor()
        )

        records = tracer.records()
        events = count(records, "events")
        batches = count(records, "batches")
        record_encode_s = total_s(records, "trace.record_encode")
        record_decode_s = total_s(records, "trace.record_decode")
        machines = len(STUDY_MACHINES)
        outputs = {"stream": encoded.data, "encode": encode_out, "decode": decode_out}
        return Traced(
            digests=[digest(outputs)],
            metrics={
                "video.synth_s": total_s(records, "video.synth"),
                "trace.record_encode_s": record_encode_s,
                "trace.record_decode_s": record_decode_s,
                "trace.events": events,
                "trace.batches": batches,
                "trace.events_per_s": events / (record_encode_s + record_decode_s),
                "memsim.study_replay_s": total_s(records, "memsim.study_replay"),
                "memsim.batches_replayed": batches * machines,
                "memsim.events_replayed": events * machines,
                "core.report_s": total_s(records, "core.report"),
            },
            shadow_s=total_s(records, "video.synth"),
        )


class Replay:
    """Record a decode trace once (set-up); replay it into both engines."""

    name = "replay"
    ops = len(STUDY_MACHINES) + len(EXTENDED_PLATFORMS)  # one per hierarchy
    traced_cycles = 1

    def __init__(self, width: int = 720, height: int = 576):
        self.width, self.height = width, height

    def setup(self, seed: int):
        frames = scene_frames(self.width, self.height, SCALE.n_frames, seed)
        data = VopEncoder(paper_codec_config(self.width, self.height)).encode_sequence(
            frames
        ).data
        capture = TraceCapture()
        recorder = TraceRecorder([capture], SCALE.sampling())
        VopDecoder(recorder, "dec.vo0.vol0", walk_tables=True).decode_sequence(data)
        return [batch.collapsed() for batch in capture.batches]

    @staticmethod
    def _platform_replay(platform, batches):
        stack = platform.build()
        for batch in batches:
            stack.process(batch)
        return stack.counters

    def _items(self, batches) -> int:
        return sum(b.n_events for b in batches) * self.ops

    def cycle(self, batches, index: int) -> Cycle:
        study = replay_into_machines(batches, STUDY_MACHINES, jobs=1)
        platforms = {
            p.name: self._platform_replay(p, batches) for p in EXTENDED_PLATFORMS
        }
        outputs = {"study": _replay_digest(study), "platforms": platforms}
        return Cycle(digest(outputs), items=self._items(batches))

    def traced(self, batches, seed: int, tracer: SpanTracer) -> Traced:
        with tracer.span("memsim.study_replay"):
            study = replay_into_machines(batches, STUDY_MACHINES, jobs=1)
        platforms = {}
        for platform in EXTENDED_PLATFORMS:
            with tracer.span("memsim.platform_replay"):
                platforms[platform.name] = self._platform_replay(platform, batches)
        outputs = {"study": _replay_digest(study), "platforms": platforms}
        records = tracer.records()
        return Traced(
            digests=[digest(outputs)],
            metrics={
                "memsim.study_replay_s": total_s(records, "memsim.study_replay"),
                "memsim.platform_replay_s": total_s(records, "memsim.platform_replay"),
                "memsim.batches_replayed": len(batches) * self.ops,
                "memsim.events_replayed": self._items(batches),
            },
        )


class Codec:
    """Untraced batched encode, then decode, at the paper's settings."""

    name = "codec"
    ops = 2  # one encode pass, one decode pass
    traced_cycles = 1

    def __init__(self, width: int = 720, height: int = 576, n_frames: int = 30):
        self.width, self.height, self.n_frames = width, height, n_frames

    def setup(self, seed: int):
        return scene_frames(self.width, self.height, self.n_frames, seed)

    def _outputs(self, encoded, decoded) -> str:
        _check_frames_equal(
            decoded.frames, encoded.reconstructions, "decoded vs encoder reconstructions"
        )
        return digest({"stream": encoded.data, "frames": frames_digest(decoded.frames)})

    def cycle(self, frames, index: int) -> Cycle:
        config = paper_codec_config(self.width, self.height)
        encoded = VopEncoder(config).encode_sequence(frames)
        decoded = VopDecoder().decode_sequence(encoded.data)
        return Cycle(self._outputs(encoded, decoded), items=2 * len(frames))

    def traced(self, frames, seed: int, tracer: SpanTracer) -> Traced:
        config = paper_codec_config(self.width, self.height)
        with tracer.span("codec.encode"):
            encoded = VopEncoder(config).encode_sequence(frames)
        with tracer.span("codec.decode"):
            decoded = VopDecoder().decode_sequence(encoded.data)
        vops = encoded.stats.vops
        coded_mbs = sum(v.intra_mbs + v.inter_mbs + v.skipped_mbs for v in vops)
        records = tracer.records()
        return Traced(
            digests=[self._outputs(encoded, decoded)],
            metrics={
                "codec.encode_s": total_s(records, "codec.encode"),
                "codec.decode_s": total_s(records, "codec.decode"),
                "codec.sad_candidates": sum(v.sad_candidates for v in vops),
                "codec.coded_coefficients": sum(v.coded_coefficients for v in vops),
                "codec.skipped_mb_frac": sum(v.skipped_mbs for v in vops) / coded_mbs,
                "codec.stream_bytes": len(encoded.data),
            },
        )


#: Per-cell transport totals of a ``repro serve`` record.
TRANSPORT_TOTALS = ("n_data_packets", "n_sent_packets", "n_dropped", "n_recovered", "n_unrepaired")


class Serve:
    """``repro serve`` cells over fleet seeds derived from the seed."""

    name = "serve"

    def __init__(self, n_sessions: int = 100, n_cells: int = 8):
        self.n_sessions = n_sessions
        self.ops = n_sessions  # one per offered session
        self.traced_cycles = n_cells

    def setup(self, seed: int) -> list[int]:
        state = np.random.SeedSequence(seed).generate_state(self.traced_cycles)
        return [int(value) for value in state]

    def cycle(self, fleet_seeds, index: int) -> Cycle:
        reset_encode_cache()
        cell = ServeCell(self.n_sessions, fleet_seeds[index % len(fleet_seeds)])
        record, _ = run_cell(cell, DEFAULT_CONFIG, backend="serial", jobs=1)
        outcomes = record["outcomes"]
        if outcomes["served"] + outcomes["degraded"] + outcomes["shed"] != outcomes["offered"]:
            raise CheckFailed(f"cell {cell.cell_id} breaks conservation: {outcomes}")
        if outcomes["offered"] != self.n_sessions:
            raise CheckFailed(f"cell {cell.cell_id} offered {outcomes['offered']}")
        outputs = {
            "fleet_digest": record["fleet_digest"],
            "outcomes": outcomes,
            "transport": record["transport"],
            "decode_outcomes": record["quality"]["decode_outcomes"],
        }
        return Cycle(digest(outputs), items=outcomes["served"] + outcomes["degraded"])

    def traced(self, fleet_seeds, seed: int, tracer: SpanTracer) -> Traced:
        config = DEFAULT_CONFIG
        digests, failures = [], []
        # Per admitted session, in order: was its encode not yet cached?
        first_uses = []
        totals = dict.fromkeys(
            ("admitted", "degraded", "shed", "concealed", "rejected", "stream_bytes",
             *TRANSPORT_TOTALS), 0,
        )
        for fleet_seed in fleet_seeds:
            reset_encode_cache()
            with tracer.span("service.build_fleet"):
                specs = build_fleet(fleet_seed, self.n_sessions, config)
            with tracer.span("service.schedule_fleet"):
                schedule = schedule_fleet(specs, config)
            totals["admitted"] += schedule.admitted
            totals["degraded"] += schedule.degraded
            totals["shed"] += schedule.shed
            by_id = {spec.session_id: spec for spec in specs}
            streams: dict[tuple, bytes] = {}
            lines = []
            transport = dict.fromkeys(TRANSPORT_TOTALS, 0)
            decode_outcomes = {"decoded": 0, "concealed": 0, "rejected": 0}
            for plan in schedule.plans:
                if not plan.admitted:
                    lines.append(f"{plan.session_id}:shed:{plan.shed_reason}")
                    continue
                spec = by_id[plan.session_id]
                key = (spec.scene_variant, plan.mode)
                first_use = key not in streams
                first_uses.append(first_use)
                with tracer.span("service.execute_session"):
                    result = execute_session(spec, plan.mode, config)
                if first_use:
                    with tracer.span("video.synth"):
                        scene = SyntheticScene(scene_spec_for_variant(spec.scene_variant, config))
                        frames = [scene.frame(i) for i in range(config.n_frames)]
                    with tracer.span("codec.encode"):
                        streams[key] = VopEncoder(
                            session_codec_config(plan.mode, config)
                        ).encode_sequence(frames).data
                with tracer.span("transport.transmit"):
                    sent = transmit_stream(
                        streams[key],
                        TransportConfig(
                            max_payload=config.max_payload, loss_rate=spec.loss_rate,
                            seed=spec.channel_seed, fec_group=config.fec_group,
                            interleave_depth=config.interleave_depth,
                        ),
                    )
                with tracer.span("codec.decode"):
                    try:
                        decoded = VopDecoder().decode_sequence(
                            sent.stream, tolerate_errors=True
                        )
                    except BitstreamError:
                        decoded = None
                totals["stream_bytes"] += len(streams[key])
                decode_outcomes[result.decode_outcome] += 1
                for name in TRANSPORT_TOTALS:
                    transport[name] += getattr(result, name)
                side_frames = "-" if decoded is None else frames_digest(decoded.frames)
                if hashlib.sha256(sent.stream).hexdigest() != result.stream_digest:
                    failures.append(f"session {spec.session_id}: stream digest differs")
                if side_frames != result.frames_digest:
                    failures.append(f"session {spec.session_id}: frames digest differs")
                total_vms = round(
                    plan.finish_vms - plan.arrival_vms
                    + result.transport_vms + result.decode_vms,
                    4,
                )
                lines.append(
                    f"{plan.session_id}:{plan.outcome}:{result.stream_digest}:"
                    f"{result.frames_digest}:{total_vms:.4f}:{result.psnr_db:.4f}"
                )
            totals["concealed"] += decode_outcomes["concealed"]
            totals["rejected"] += decode_outcomes["rejected"]
            for name in TRANSPORT_TOTALS:
                totals[name] += transport[name]
            outputs = {
                "fleet_digest": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
                "outcomes": {
                    "offered": schedule.offered, "served": schedule.served,
                    "degraded": schedule.degraded, "shed": schedule.shed,
                    "shed_reasons": dict(schedule.shed_reasons),
                },
                "transport": transport,
                "decode_outcomes": decode_outcomes,
            }
            digests.append(digest(outputs))

        records = tracer.records()
        # One span of each per admitted session, in session order.
        session_ms = [s * 1e3 for s in durations_s(records, "service.execute_session")]
        transmit_ms = [s * 1e3 for s in durations_s(records, "transport.transmit")]
        decode_ms = [s * 1e3 for s in durations_s(records, "codec.decode")]
        # Cached encode: what execute_session does beyond the transmit and
        # decode timed beside it on the same inputs.
        self_ms = [
            executed - transmitted - decoded
            for executed, transmitted, decoded, first_use
            in zip(session_ms, transmit_ms, decode_ms, first_uses)
            if not first_use
        ]
        shadow = sum(
            total_s(records, name)
            for name in ("video.synth", "codec.encode", "transport.transmit", "codec.decode")
        )
        return Traced(
            digests=digests,
            metrics={
                "video.synth_s": total_s(records, "video.synth"),
                "codec.encode_s": total_s(records, "codec.encode"),
                "codec.decode_s": total_s(records, "codec.decode"),
                "codec.stream_bytes": totals["stream_bytes"],
                "codec.session_decode_ms_p50": percentile(decode_ms, 50),
                "codec.session_decode_ms_p99": percentile(decode_ms, 99),
                "transport.transmit_ms_p50": percentile(transmit_ms, 50),
                "transport.transmit_ms_p99": percentile(transmit_ms, 99),
                "transport.packets_sent": totals["n_sent_packets"],
                "transport.packets_dropped": totals["n_dropped"],
                "transport.packets_recovered": totals["n_recovered"],
                "transport.fec_recovered_frac": (
                    totals["n_recovered"] / totals["n_dropped"] if totals["n_dropped"] else 0.0
                ),
                "service.build_fleet_s": total_s(records, "service.build_fleet"),
                "service.schedule_s": total_s(records, "service.schedule_fleet"),
                "service.session_ms_p50": percentile(session_ms, 50),
                "service.session_ms_p99": percentile(session_ms, 99),
                "service.session_self_ms": sum(self_ms) / len(self_ms) if self_ms else 0.0,
                "service.admitted": totals["admitted"],
                "service.degraded": totals["degraded"],
                "service.shed": totals["shed"],
                "service.decode_concealed": totals["concealed"],
                "service.decode_rejected": totals["rejected"],
            },
            shadow_s=shadow,
            failures=failures,
        )


WORKLOADS = {cls.name: cls for cls in (Tables, Replay, Codec, Serve)}
