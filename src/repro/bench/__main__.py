"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.bench list
    python -m repro.bench table3 [--scale test|bench|prod]
    python -m repro.bench all [--scale test|bench|prod] [--jobs N]
    python -m repro.bench table1 --profile 25   # cProfile hotspots
    python -m repro.bench perf [--out BENCH_perf.json]
    python -m repro.bench sweep --comprehensive --scale tiny --jobs 4
    python -m repro.bench tune --workload cluster --scale tiny

Reports are deterministic: the same tree, scale, and experiment set
produce a byte-identical report file whatever ``--jobs`` is (wall-clock
timings go to stderr, never into the report). Every run computes every
report it prints; nothing is replayed from an earlier run.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import add_run_options, run_experiment, run_units
from repro.bench.scales import get_scale


def _sweep_main(argv) -> int:
    """The ``sweep`` subcommand: map the design space, flag its cliffs.

    Per grid: a CSV of every (params, measurements) row, top-N
    best/worst tables, knife-edge detection over adjacent grid points,
    and heatmap panels — all byte-deterministic whatever ``--jobs``
    (wall timings stderr-only, rows in cartesian order).
    """
    from repro.bench.experiments import sweep_grids
    from repro.bench.plots import sweep_panels
    from repro.bench.report import format_top_tables
    from repro.bench.sweep import (
        detect_knife_edges,
        format_knife_edges,
        run_grid,
        write_csv,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sweep",
        description="Design-space exploration: cartesian grids over RU "
                    "size, PID policy, GC watermarks, WAL policy, shard "
                    "count, and value size.",
    )
    parser.add_argument("--comprehensive", action="store_true",
                        help="run every registered grid")
    parser.add_argument("--grid", action="append", default=None,
                        metavar="NAME",
                        help="run one named grid (repeatable); "
                             "see --list")
    parser.add_argument("--list", action="store_true",
                        help="list registered grids and exit")
    add_run_options(parser, "tiny")
    parser.add_argument("--out-dir", default="out/sweep",
                        help="CSV/report directory (default: out/sweep)")
    parser.add_argument("--top", type=int, default=5,
                        help="rows in the best/worst tables")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale)
    grids = sweep_grids(scale.name)
    if args.list:
        for name, grid in grids.items():
            print(f"{name}: {grid.size} points over "
                  f"{'x'.join(str(len(v)) for v in grid.axes.values())} "
                  f"({', '.join(grid.axes)})")
        return 0
    if args.comprehensive:
        names = list(grids)
    elif args.grid:
        names = list(dict.fromkeys(args.grid))
        for name in names:
            if name not in grids:
                print(f"unknown grid {name!r}; try --list",
                      file=sys.stderr)
                return 2
    else:
        print("choose --comprehensive or --grid NAME (see --list)",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks = []
    for name in names:
        grid = grids[name]
        t0 = time.perf_counter()
        result = run_grid(grid, jobs=args.jobs)
        elapsed = time.perf_counter() - t0
        print(f"({name}: {grid.size} points, {elapsed:.1f}s wall)",
              file=sys.stderr)
        csv_path = out_dir / f"{name}_{scale.name}.csv"
        write_csv(result, csv_path)
        edges = detect_knife_edges(result, grid.edges,
                                   axes=dict(grid.axes))
        text = "\n".join([
            f"== Sweep: {name} @ {scale.name} "
            f"({grid.size} points) ==",
            grid.description, "",
            result.format(), "",
            format_top_tables(result, grid.objective, n=args.top,
                              maximize=grid.maximize), "",
            "Knife edges (adjacent points, metric jump >= factor):",
            format_knife_edges(edges), "",
            sweep_panels(result, grid.panels), "",
            f"(CSV: {csv_path})", "",
        ])
        chunks.append(text)
        print(text)
    report_path = out_dir / f"sweep_{scale.name}_report.txt"
    report_path.write_text("".join(f"{text}\n" for text in chunks))
    print(f"(report written to {report_path})", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "perf":
        from repro.bench.perf import main as perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "tune":
        from repro.bench.tune import main as tune_main

        return tune_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the SlimIO paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="+", metavar="experiment",
                        help="experiment ids (e.g. table3 figure4), "
                             "'all', 'list', 'perf', 'sweep', or 'tune'")
    add_run_options(parser, "bench")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file "
                             "(default: out/bench_<scale>_results.txt; "
                             "'-' disables the file)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run with the repro.analysis runtime "
                             "sanitizers active on every SlimIO system "
                             "(validates region/PID placement, slot "
                             "promotion, and fork-race freedom)")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="run one experiment under cProfile and "
                             "print the top-N cumulative hotspots to "
                             "stderr (the report itself stays "
                             "deterministic)")
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    scale = get_scale(args.scale)
    if args.sanitize:
        scale = replace(scale, sanitize=True)
    if "all" in args.experiments:
        names = list(EXPERIMENTS)
    else:
        names = list(dict.fromkeys(args.experiments))  # dedupe, keep order
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2
    out_path = args.out
    if out_path is None:
        out_path = f"out/bench_{scale.name}_results.txt"

    if args.profile is not None:
        # profiling shell: wall-time introspection only, stderr only —
        # the report text is untouched (slimlint SLIM003 sanctions
        # this file as a measurement shell)
        if args.profile < 1:
            print("--profile must be >= 1", file=sys.stderr)
            return 2
        if len(names) != 1:
            print("--profile takes exactly one experiment",
                  file=sys.stderr)
            return 2
        import cProfile
        import pstats

        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        payload = run_experiment(names[0], scale)
        prof.disable()
        print(f"({names[0]}: {time.perf_counter() - t0:.1f}s wall under "
              f"cProfile)", file=sys.stderr)
        stats = pstats.Stats(prof, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(args.profile)
        print(payload["report"])
        return 0 if payload["shapes_hold"] else 1

    def log(name, outcome) -> None:
        print(f"({name}: {outcome.wall_s:.1f}s wall)", file=sys.stderr)

    outcomes = run_units(
        functools.partial(run_experiment, scale=scale), names,
        jobs=args.jobs, clock=time.perf_counter, log=log)
    failed = [(name, o) for name, o in zip(names, outcomes) if o.error]
    for name, outcome in failed:
        # no report is written that silently lacks an experiment
        print(f"{outcome.trace}({name}: failed: {outcome.error})",
              file=sys.stderr)
    if failed:
        return 1

    exit_code = 0
    chunks = []
    for outcome in outcomes:  # input order, independent of finish order
        print(outcome.value["report"])
        chunks.append(outcome.value["report"])
        if not outcome.value["shapes_hold"]:
            exit_code = 1
    if out_path != "-":
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{text}\n" for text in chunks))
        print(f"(report written to {path})", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
