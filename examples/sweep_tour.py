#!/usr/bin/env python3
"""Tour of the design-space sweep + auto-tune layer (docs/SWEEP.md).

Builds a small *real* grid — RU size x GC stop watermark on the
single-node SlimIO system — runs it through the grid engine,
flags knife edges, renders a heatmap, then lets coordinate descent
find the best point and emit a loadable SystemConfig recommendation.

    python examples/sweep_tour.py

(Uses the in-repo "tiny" scale; a few seconds of simulated I/O.)
"""

import json
from functools import partial

from repro.bench.experiments import single_sweep_config, single_sweep_point
from repro.bench.plots import grid_heatmap
from repro.bench.report import format_top_tables
from repro.bench.scales import get_scale
from repro.bench.sweep import (
    EdgeSpec,
    GridSpec,
    detect_knife_edges,
    format_knife_edges,
    run_grid,
)
from repro.bench.tune import coordinate_descent, recommendation


def main():
    scale = get_scale("tiny")
    grid = GridSpec(
        name="tour",
        axes={
            "ru_pages": [4, 8],
            "gc_stop_segments": [5, 6],
            "wal_policy": ["periodical"],
            "value_size": [1024, 4096],
        },
        runner=partial(single_sweep_point, scale_name="tiny"),
        objective="score",
        maximize=True,
        edges=(EdgeSpec("waf_excess", factor=2.0, min_jump=0.02),
               EdgeSpec("p999_us", factor=2.0, min_jump=100.0)),
        config_builder=single_sweep_config,
    )
    print(f"sweeping {grid.size} points: "
          f"{'x'.join(str(len(v)) for v in grid.axes.values())} over "
          f"{', '.join(grid.axes)}\n")

    # 1. map the space
    result = run_grid(grid)
    print(result.format())

    # 2. rank it
    print()
    print(format_top_tables(result, grid.objective, n=3))

    # 3. look for cliffs between adjacent points
    edges = detect_knife_edges(result, grid.edges, axes=dict(grid.axes))
    print("\nKnife edges:")
    print(format_knife_edges(edges))

    # 4. one heatmap slice
    print()
    print(grid_heatmap(result, "ru_pages", "value_size", "p999_us"))

    # 5. search instead of enumerate
    tr = coordinate_descent(grid, scale)
    print(f"\ntuner: {tr.evaluations} evaluations -> {tr.params} "
          f"(score {tr.metrics['score']:,.0f})")

    # 6. emit a loadable recommendation (round-trip validated)
    payload = recommendation(grid, scale, tr)
    ftl = payload["system_config"]["ftl"]
    print("recommended ftl block: "
          + json.dumps({k: ftl[k] for k in sorted(ftl)}))


if __name__ == "__main__":
    main()
