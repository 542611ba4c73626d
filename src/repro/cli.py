"""Command-line entry point: ``python -m repro <experiment> [...]``.

Regenerates paper artifacts from the shell:

.. code-block:: console

   $ python -m repro table5                 # one table, default scale
   $ python -m repro fig2 --scale quick     # one figure, fast
   $ python -m repro all --scale paper      # everything, 30-frame runs
   $ python -m repro list                   # what can be regenerated
   $ python -m repro conformance --check    # golden-vector gate
   $ python -m repro fuzz --cases 150       # corruption smoke sweep
   $ python -m repro study --grid tables    # crash-safe, resumable study
   $ python -m repro study --resume <id>    # finish a killed run
   $ python -m repro chaos --cases 100      # seeded fault-injection sweep
   $ python -m repro resilience --smoke     # PSNR-vs-loss transport study
   $ python -m repro serve --sessions 32    # streaming-service scale study
   $ python -m repro faultstudy --smoke     # availability vs fault intensity
   $ python -m repro abrstudy --smoke       # ABR quality vs provisioned bw
   $ python -m repro bench codec            # engine throughput benchmark
   $ python -m repro profile encode         # traced run + per-stage table
   $ python -m repro obs report --trace obs-profile/trace.jsonl
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.core.experiments import EXPERIMENTS, SCALES, StudyRunner, run_experiment

#: Subcommand -> (module, entry point); modules import on first use.
_SUBCOMMANDS = {
    "conformance": ("repro.conformance.cli", "conformance_main"),
    "fuzz": ("repro.conformance.cli", "fuzz_main"),
    "study": ("repro.core.runner.cli", "study_main"),
    "chaos": ("repro.core.runner.cli", "chaos_main"),
    "resilience": ("repro.transport.cli", "resilience_main"),
    "serve": ("repro.service.cli", "serve_main"),
    "faultstudy": ("repro.service.cli", "faultstudy_main"),
    "abrstudy": ("repro.service.cli", "abrstudy_main"),
    "bench": ("repro.codec.bench", "bench_main"),
    "profile": ("repro.obs.cli", "profile_main"),
    "obs": ("repro.obs.cli", "obs_main"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate tables/figures of 'An MPEG-4 Performance Study for "
            "non-SIMD, General Purpose Architectures' (ISPASS 2003)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (table1..table8, fig2..fig4), 'all', 'list', "
             "or a subcommand: " + ", ".join(_SUBCOMMANDS),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="tracing effort preset (default: default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="replay worker processes per cell (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="simulation engine (default: $REPRO_ENGINE or 'fast')",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="persist recorded traces under DIR (default: $REPRO_TRACE_CACHE)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    import os

    if argv is None:
        argv = sys.argv[1:]
    # Subcommands own their argument grammar; dispatch before the
    # experiment parser sees (and rejects) their flags.
    if argv and argv[0] in _SUBCOMMANDS:
        module, entry = _SUBCOMMANDS[argv[0]]
        return getattr(importlib.import_module(module), entry)(argv[1:])
    args = build_parser().parse_args(argv)
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine
    if args.trace_cache is not None:
        os.environ["REPRO_TRACE_CACHE"] = args.trace_cache
    if args.experiment == "list":
        for experiment_id in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[experiment_id].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{experiment_id:<8} {summary}")
        return 0
    runner = StudyRunner(SCALES[args.scale], jobs=args.jobs)
    if args.experiment == "all":
        experiment_ids = sorted(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        experiment_ids = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr
        )
        return 2
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, runner)
        print(result.text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
