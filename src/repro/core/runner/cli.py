"""CLI entry points: ``repro study`` and ``repro chaos``.

.. code-block:: console

   $ python -m repro study                         # crash-safe full-table run
   $ python -m repro study --resume <run-id>       # finish a killed run
   $ python -m repro study --list-runs             # what's on disk
   $ python -m repro study --report <run-id>       # per-cell attempt history
   $ python -m repro chaos --cases 100 --seed 0    # seeded chaos sweep
"""

from __future__ import annotations

import argparse


def study_main(argv: list[str] | None = None) -> int:
    from repro.core.experiments import SCALES
    from repro.core.runner.orchestrator import (
        DEFAULT_CELL_BUDGET_S,
        GRIDS,
        run_study,
        status_report,
        statuses,
    )
    from repro.core.runner.supervisor import RetryPolicy, WorkerBudget
    from repro.core.sweep import (
        StoreError,
        add_run_options,
        finish_run,
        load_record,
        run_dir_for,
        runs_root,
    )

    parser = argparse.ArgumentParser(
        prog="repro study",
        description=(
            "Crash-safe study orchestration: supervised workers, "
            "digest-verified cell store, resume."
        ),
    )
    parser.add_argument("--grid", choices=sorted(GRIDS), default=None,
                        help="experimental grid to run (default: tables; "
                             "a resume keeps the run's own grid)")
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="tracing effort preset (default: $REPRO_SCALE; "
                             "a resume keeps the run's own scale)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="supervised cell workers (default: $REPRO_JOBS)")
    parser.add_argument("--list-runs", action="store_true",
                        help="list runs under the runs root and exit")
    parser.add_argument("--report", default=None, metavar="ID",
                        help="print a run's per-cell status and attempt "
                             "history, and exit")
    parser.add_argument("--max-attempts", type=int, default=3, metavar="N",
                        help="supervised attempts per cell (default: 3)")
    parser.add_argument("--cell-budget", type=float,
                        default=DEFAULT_CELL_BUDGET_S, metavar="S",
                        help="per-cell wall budget in seconds "
                             f"(default: {DEFAULT_CELL_BUDGET_S:.0f})")
    add_run_options(parser)
    args = parser.parse_args(argv)
    root = runs_root(args.runs_dir, "study")

    if args.list_runs:
        runs = sorted(p.parent for p in root.glob("*/run.json"))
        if not runs:
            print(f"no runs under {root}")
            return 0
        print(f"{'run id':<32} {'grid':<8} {'scale':<8} "
              f"{'done':>5} {'quar':>5} {'pend':>5}")
        for run_dir in runs:
            meta = load_record(run_dir / "run.json")
            if meta is None:
                print(f"{run_dir.name:<32} unreadable run.json")
                continue
            state = list(statuses(run_dir, meta["cells"]).values())
            print(f"{run_dir.name:<32} {meta['grid']:<8} {meta['scale']:<8} "
                  f"{state.count('done'):>5} {state.count('quarantined'):>5} "
                  f"{state.count('pending'):>5}")
        return 0

    if args.report:
        meta = load_record(root / args.report / "run.json")
        if meta is None:
            print(f"error: run {args.report!r} has no readable run.json "
                  f"under {root}")
            return 2
        print(status_report(root / args.report, meta))
        return 0

    run_dir = run_dir_for(args, "study")
    try:
        summary = run_study(
            run_dir,
            grid=args.grid,
            scale=args.scale,
            jobs=args.jobs,
            resume=args.resume is not None,
            retry=RetryPolicy(max_attempts=max(1, args.max_attempts)),
            budget=WorkerBudget(wall_s=args.cell_budget, heartbeat_s=30.0),
        )
    except (StoreError, ValueError) as error:
        print(f"error: {error}")
        return 2
    table = status_report(run_dir, load_record(run_dir / "run.json"))
    if summary["artifacts"]:
        table += f"\n\nrendered: {', '.join(summary['artifacts'])}"
    return finish_run(
        args, run_dir, summary, "study",
        n_cells=summary["cells"] - len(summary["missing_cells"]),
        table=table,
        detail=f", grid={summary['grid']}, scale={summary['scale']}",
    )


def chaos_main(argv: list[str] | None = None) -> int:
    from repro.core.runner.chaos import PROFILES
    from repro.core.runner.orchestrator import run_chaos_sweep

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Seeded chaos sweep over the supervised runner + cell store: "
            "every injected fault must be retried to success or end as a "
            "quarantined cell -- never a crash or a silently wrong result."
        ),
    )
    parser.add_argument("--cases", type=int, default=100, metavar="N",
                        help="chaos cases (one seed each; default: 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (case i uses seed+i; default: 0)")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="heavy",
                        help="fault profile (default: heavy)")
    parser.add_argument("--cells", type=int, default=2, metavar="K",
                        help="probe cells per case (default: 2)")
    args = parser.parse_args(argv)
    report = run_chaos_sweep(
        n_cases=args.cases,
        master_seed=args.seed,
        profile=args.profile,
        n_cells=args.cells,
    )
    print(report.summary())
    if not report.ok:
        print("chaos sweep FAILED: replay any case with "
              f"REPRO_CHAOS=<seed>:{args.profile}")
        return 1
    print("chaos sweep passed")
    return 0
