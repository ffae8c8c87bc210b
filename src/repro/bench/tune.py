"""Auto-tuner: search a design-space grid, emit a recommended config.

Closes the loop the ROADMAP names: the comprehensive sweep maps the
design space (including its cliffs), and this module *searches* it —
coordinate descent over a :class:`repro.bench.sweep.GridSpec`, one axis
at a time, every evaluation served through the same parameter-keyed
on-disk cache the sweep populates. After ``python -m repro.bench sweep
--comprehensive`` the whole grid is cached and a tune run costs zero
simulation; cold, it evaluates only the descent path (axes x values x
passes, typically a small fraction of the grid).

The output is a JSON recommendation per workload: the winning
parameters, their measured metrics, the full descent trajectory, and a
``system_config`` block that round-trips through
:class:`repro.core.SystemConfig` construction — the file is directly
loadable as a deployment config, not just a report.

Usage::

    python -m repro.bench tune --workload cluster --scale tiny
    python -m repro.bench tune --workload single --objective p999_us --minimize
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.bench.harness import add_run_options, cache_dir_of, run_units
from repro.bench.sweep import GridSpec

__all__ = [
    "TuneResult", "coordinate_descent", "config_to_jsonable",
    "config_from_jsonable", "cluster_config_to_jsonable",
    "cluster_config_from_jsonable", "recommendation", "main",
]


# --------------------------------------------------------------------------
# SystemConfig <-> JSON
# --------------------------------------------------------------------------

def config_to_jsonable(cfg) -> dict[str, Any]:
    """A :class:`SystemConfig` as a plain JSON-safe dict.

    Nested dataclasses flatten via ``asdict``; the one enum field
    (``policy``) becomes its string value. The inverse is
    :func:`config_from_jsonable`, and the pair round-trips exactly.
    """
    d = asdict(cfg)
    d["policy"] = cfg.policy.value
    return d


def _build(cls, d, **nested):
    """``cls(**d)`` for a payload that names every field exactly once:
    a dropped key must not silently take its default (KeyError), an
    unknown one must not be ignored (TypeError)."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__}: expected an object, "
                        f"got {type(d).__name__}")
    missing = [f.name for f in fields(cls) if f.init and f.name not in d]
    if missing:
        raise KeyError(f"{cls.__name__} payload lacks {', '.join(missing)}")
    return cls(**{**d, **nested})


def config_from_jsonable(d: dict[str, Any]):
    """Rebuild a :class:`SystemConfig` from :func:`config_to_jsonable`
    output — every nested dataclass is constructed for real, so field
    validation (``__post_init__``) runs and a tampered or stale payload
    fails loudly (``ValueError`` / ``TypeError`` / ``KeyError``)
    instead of half-building."""
    from repro.core import SystemConfig
    from repro.core.placement import PlacementPolicy
    from repro.flash import FlashGeometry, FtlConfig, NandTiming
    from repro.imdb.memory import ForkModel
    from repro.imdb.server import ServerConfig
    from repro.kernel.costs import KernelCosts
    from repro.persist import LoggingPolicy
    from repro.persist.compress import CompressionModel
    from repro.persist.snapshot import SnapshotCpuModel

    server = d["server"]
    return _build(
        SystemConfig, d,
        geometry=_build(FlashGeometry, d["geometry"]),
        nand=_build(NandTiming, d["nand"]),
        ftl=_build(FtlConfig, d["ftl"]),
        costs=_build(KernelCosts, d["costs"]),
        server=_build(
            ServerConfig, server,
            fork_model=_build(ForkModel, server["fork_model"]),
            snapshot_cpu=_build(SnapshotCpuModel, server["snapshot_cpu"])),
        compression=_build(CompressionModel, d["compression"]),
        placement=_build(PlacementPolicy, d["placement"]),
        policy=LoggingPolicy(d["policy"]),
    )


def cluster_config_to_jsonable(cfg) -> dict[str, Any]:
    """A :class:`ClusterConfig` as a JSON-safe dict (see
    :func:`config_to_jsonable` for the nested system template)."""
    return {
        "num_shards": cfg.num_shards,
        "design": cfg.design,
        "num_pids": cfg.num_pids,
        "sharing": None if cfg.sharing is None else cfg.sharing.value,
        "system": config_to_jsonable(cfg.system),
    }


def cluster_config_from_jsonable(d: dict[str, Any]):
    from repro.cluster import ClusterConfig
    from repro.cluster.pids import SharingMode

    sharing = d["sharing"]
    return _build(
        ClusterConfig, d,
        sharing=None if sharing is None else SharingMode(sharing),
        system=config_from_jsonable(d["system"]),
    )


# --------------------------------------------------------------------------
# coordinate descent
# --------------------------------------------------------------------------

@dataclass
class TuneResult:
    """Outcome of one search: the winner and how it was found."""

    workload: str
    scale_name: str
    objective: str
    maximize: bool
    params: dict[str, Any]
    metrics: dict[str, Any]
    #: (params, objective value) at the start and after every move
    trajectory: list[tuple[dict[str, Any], float]] = field(
        default_factory=list)
    evaluations: int = 0
    passes: int = 0


class _Evaluator:
    """Memoized, failure-tolerant view of the grid's (cached) points."""

    def __init__(self, grid: GridSpec, scale, cache_dir, refresh: bool):
        self._run = functools.partial(
            run_units, grid.runner, cell=lambda p: (grid.name, p),
            scale=scale, cache_dir=cache_dir, refresh=refresh)
        self._names = list(grid.axes.keys())
        self._memo: dict[tuple, dict | None] = {}
        self.evaluations = 0

    def __call__(self, params: dict[str, Any]) -> dict | None:
        key = tuple(params[n] for n in self._names)
        if key not in self._memo:
            self.evaluations += 1
            (outcome,) = self._run([dict(params)])
            # a failed point is an infeasible corner: stepped around
            self._memo[key] = outcome.value
        return self._memo[key]


def coordinate_descent(grid: GridSpec, scale,
                       cache_dir: str | Path | None = None,
                       refresh: bool = False,
                       objective: str | None = None,
                       maximize: bool | None = None,
                       max_passes: int = 8) -> TuneResult:
    """Search ``grid`` one axis at a time until a full pass stands pat.

    Deterministic by construction: axes iterate in grid order, axis
    values in grid order, and ties keep the incumbent — so the same
    tree and scale always produce the same recommendation. Infeasible
    points (build-time errors, e.g. ``dedicated`` PIDs past the
    device's budget) evaluate as unusable and are stepped around; if
    *every* grid point is infeasible the search raises.
    """
    objective = objective or grid.objective
    maximize = grid.maximize if maximize is None else maximize
    names = list(grid.axes.keys())
    axes = {n: list(v) for n, v in grid.axes.items()}
    ev = _Evaluator(grid, scale, cache_dir, refresh)

    def score(vals: dict | None) -> float | None:
        if vals is None or objective not in vals:
            return None
        return float(vals[objective])

    def better(a: float, b: float) -> bool:
        return a > b if maximize else a < b

    # start from the middle of every axis; if that corner is
    # infeasible, scan the grid in cartesian order for a footing
    current = {n: axes[n][len(axes[n]) // 2] for n in names}
    current_vals = ev(current)
    if score(current_vals) is None:
        import itertools

        for values in itertools.product(*(axes[n] for n in names)):
            candidate = dict(zip(names, values))
            current_vals = ev(candidate)
            if score(current_vals) is not None:
                current = candidate
                break
        else:
            raise ValueError(
                f"no feasible point in grid {grid.name!r} "
                f"({ev.evaluations} points tried)"
            )
    current_score = score(current_vals)

    result = TuneResult(
        workload=grid.name, scale_name=scale.name, objective=objective,
        maximize=maximize, params=dict(current), metrics=current_vals,
        trajectory=[(dict(current), current_score)],
    )
    for _ in range(max_passes):
        result.passes += 1
        improved = False
        for axis in names:
            for value in axes[axis]:
                if value == current[axis]:
                    continue
                candidate = {**current, axis: value}
                s = score(ev(candidate))
                if s is not None and better(s, current_score):
                    current = candidate
                    current_score = s
                    improved = True
            # record at most one move per axis per pass (the best one
            # won: later values only displaced earlier winners)
            if improved and result.trajectory[-1][0] != current:
                result.trajectory.append((dict(current), current_score))
        if not improved:
            break
    result.params = dict(current)
    result.metrics = ev(current)
    result.evaluations = ev.evaluations
    return result


# --------------------------------------------------------------------------
# recommendation export
# --------------------------------------------------------------------------

def recommendation(grid: GridSpec, scale, tr: TuneResult) -> dict:
    """The tuner's JSON payload, with a round-trip-validated config.

    ``system_config`` always holds a loadable :class:`SystemConfig`
    (for cluster grids: the per-shard template; the PID allocator
    assigns per-shard placement at build time). Cluster grids add a
    ``cluster`` block with the tenant-level choices. The payload is
    validated by actually reconstructing the config before it is
    returned — an emitted recommendation can never fail to load.
    """
    if grid.config_builder is None:
        raise ValueError(f"grid {grid.name!r} has no config builder")
    cfg = grid.config_builder(scale, tr.params)
    cluster_block = None
    if hasattr(cfg, "system"):  # ClusterConfig
        cluster_block = cluster_config_to_jsonable(cfg)
        system_block = cluster_block["system"]
        cluster_config_from_jsonable(cluster_block)  # validate
    else:
        system_block = config_to_jsonable(cfg)
    config_from_jsonable(system_block)  # validate round-trip
    return {
        "workload": tr.workload,
        "scale": tr.scale_name,
        "objective": tr.objective,
        "maximize": tr.maximize,
        "params": tr.params,
        "metrics": tr.metrics,
        "evaluations": tr.evaluations,
        "passes": tr.passes,
        "trajectory": [
            {"params": p, "objective": s} for p, s in tr.trajectory
        ],
        "system_config": system_block,
        "cluster": cluster_block,
    }


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    from repro.bench.experiments import sweep_grids
    from repro.bench.report import format_table
    from repro.bench.scales import get_scale

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench tune",
        description="Search a design-space grid and emit a recommended "
                    "SystemConfig as JSON.",
    )
    parser.add_argument("--workload", required=True,
                        help="grid to search (see 'sweep --list'): "
                             "single | cluster")
    add_run_options(parser, "tiny", jobs=False)
    parser.add_argument("--objective", default=None,
                        help="metric to optimize (default: the grid's, "
                             "'score' = rps / (waf^2 * (1 + p999_ms)))")
    parser.add_argument("--minimize", action="store_true",
                        help="minimize the objective instead of "
                             "maximizing it (e.g. --objective p999_us)")
    parser.add_argument("--max-passes", type=int, default=8,
                        help="coordinate-descent pass budget")
    parser.add_argument("--out", default=None,
                        help="recommendation JSON path (default: "
                             "out/sweep/tuned_<workload>_<scale>.json; "
                             "'-' prints to stdout only)")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale)
    grids = sweep_grids(scale.name)
    if args.workload not in grids:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(grids)}", file=sys.stderr)
        return 2
    grid = grids[args.workload]
    tr = coordinate_descent(
        grid, scale, cache_dir=cache_dir_of(args), refresh=args.refresh,
        objective=args.objective,
        maximize=(False if args.minimize else None),
        max_passes=args.max_passes,
    )
    payload = recommendation(grid, scale, tr)

    names = list(grid.axes.keys())
    print(f"== Tune: {grid.name} @ {scale.name} ==")
    print(f"objective: {tr.objective} "
          f"({'maximize' if tr.maximize else 'minimize'}); "
          f"{tr.evaluations} evaluations over {tr.passes} passes\n")
    print("Descent trajectory:")
    print(format_table(
        [*names, tr.objective],
        [[p[n] for n in names] + [s] for p, s in tr.trajectory],
    ))
    print("\nRecommended point:")
    metric_names = [k for k in tr.metrics if k not in names]
    print(format_table(metric_names,
                       [[tr.metrics[k] for k in metric_names]]))

    out = args.out
    if out is None:
        out = f"out/sweep/tuned_{grid.name}_{scale.name}.json"
    if out != "-":
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n")
        print(f"\n(recommendation written to {path})", file=sys.stderr)
    else:
        print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
