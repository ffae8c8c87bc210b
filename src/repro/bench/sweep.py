"""Parameter sweeps: run a grid of configurations, collect a table.

For sensitivity studies beyond the paper's point estimates — e.g. how
the SlimIO advantage moves with value size, client count, or device
over-provisioning. Results come back as rows of plain dicts and can be
dumped to CSV for external analysis.

Beyond ad-hoc grids, this module is the engine of the design-space
exploration subsystem (``python -m repro.bench sweep``):

* :class:`GridSpec` names a cartesian grid plus the module-level runner
  that measures one point (picklable, so grids parallelize over the
  ``--jobs`` process pool);
* :func:`sweep` runs a grid's axes through the experiments' run path
  (:func:`repro.bench.harness.run_units`), computing every point;
* :func:`detect_knife_edges` flags adjacent grid points whose metric
  jumps by more than a factor — the ``gc_stop_segments`` 6→5 cliff
  found in PR 4 is the motivating example: point estimates hide these
  edges, grids expose them.

A point whose runner raises is an error row (an infeasible corner
records an ``error`` column and *no* measurement keys), so a sweep
mixes success and error rows and stays fully renderable: ``format()``
and ``write_csv()`` union headers across rows and treat missing cells
as blank, and ``top()`` ranks the successful rows alone.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.bench.harness import run_units

__all__ = [
    "SweepResult", "sweep", "write_csv", "GridSpec", "EdgeSpec",
    "KnifeEdge", "detect_knife_edges",
    "format_knife_edges",
]

#: runner(params) -> dict of measured values
Runner = Callable[[dict[str, Any]], dict[str, float]]


@dataclass
class SweepResult:
    """All (params, measurements) rows of one sweep."""

    param_names: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def headers(self) -> list[str]:
        """Union of every row's keys, first-seen order.

        Success rows and error rows carry different key sets; a
        single row can never be trusted to name them all.
        """
        headers: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in headers:
                    headers.append(key)
        return headers

    def ok_rows(self) -> list[dict[str, Any]]:
        """The successful rows (no ``error`` column)."""
        return [r for r in self.rows if "error" not in r]

    def axis_values(self, name: str) -> list[Any]:
        """Distinct values of one parameter, first-seen (= grid) order."""
        seen: list[Any] = []
        for row in self.rows:
            if name in row and row[name] not in seen:
                seen.append(row[name])
        return seen

    def top(self, metric: str, n: int = 5,
            maximize: bool = True) -> list[dict[str, Any]]:
        """The ``n`` best successful rows by ``metric``, best first."""
        candidates = [r for r in self.rows
                      if "error" not in r and metric in r]
        return sorted(candidates, key=lambda r: r[metric],
                      reverse=maximize)[:n]

    def format(self) -> str:
        from repro.bench.report import format_dict_rows

        if not self.rows:
            return "(empty sweep)"
        return format_dict_rows(self.headers(), self.rows)


def sweep(grid: dict[str, Iterable[Any]], runner: Runner,
          jobs: int = 1) -> SweepResult:
    """Run ``runner`` for every point of the cartesian ``grid`` (a
    :class:`GridSpec`'s ``axes``, or any axis -> values dict).

    A point whose runner raises becomes an error row (its message in
    an ``error`` column, no measurements): a design-space sweep's job
    is to map the feasible region, so an infeasible corner (e.g.
    ``dedicated`` PIDs on a shard count that does not fit the device)
    is a result, not a failure.

    ``jobs``: process-level parallelism. Row order is the grid's
    cartesian order whatever ``jobs`` is, so sweep output is
    deterministic; ``runner`` must be picklable (a module-level
    function) when ``jobs > 1``. Points run through
    :func:`repro.bench.harness.run_units`, the experiments' run path.
    """
    names = list(grid.keys())
    result = SweepResult(param_names=names)
    points = [dict(zip(names, values))
              for values in itertools.product(*(list(grid[n])
                                                for n in names))]
    outcomes = run_units(runner, [dict(p) for p in points], jobs=jobs)
    for params, outcome in zip(points, outcomes):
        row: dict[str, Any] = dict(params)
        if outcome.error is None:
            row.update(outcome.value)
        else:
            row["error"] = outcome.error
        result.rows.append(row)
    return result


def write_csv(result: SweepResult, path: str | Path) -> None:
    """Dump a sweep to CSV (union of all row keys, stable order).

    Heterogeneous rows are expected — a sweep mixes measurement rows
    with error rows — so the writer takes the union of keys and renders
    every missing cell as an empty string (``restval=""``) rather than
    dropping or shifting columns.
    """
    if not result.rows:
        raise ValueError("empty sweep")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=result.headers(),
                                restval="")
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)


# --------------------------------------------------------------------------
# design-space grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeSpec:
    """Knife-edge detection policy for one metric.

    ``factor`` is the multiplicative jump between *adjacent* grid
    points that counts as a cliff; ``min_jump`` is an absolute floor on
    the difference, so metrics hovering near zero don't flag noise
    (0.001 → 0.003 is a 3x ratio nobody should page over).
    """

    metric: str
    factor: float = 2.0
    min_jump: float = 0.0


@dataclass(frozen=True)
class GridSpec:
    """One named cartesian grid plus how to run and read it.

    ``runner`` must be a picklable callable ``(params) -> dict`` —
    a module-level function or a ``functools.partial`` over one — so
    the grid parallelizes across the ``--jobs`` process pool.
    """

    name: str
    #: axis name -> ordered values (adjacency for knife-edge detection
    #: follows this order)
    axes: dict[str, Sequence[Any]]
    runner: Runner
    #: cliff detectors evaluated over every axis
    edges: tuple[EdgeSpec, ...] = ()
    #: heatmap panels rendered into the report: (x axis, y axis, metric)
    panels: tuple[tuple[str, str, str], ...] = ()
    description: str = ""

    @property
    def size(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out


# --------------------------------------------------------------------------
# knife-edge detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KnifeEdge:
    """One detected cliff: a metric jumping across two *adjacent*
    values of one axis, every other parameter held fixed."""

    param: str
    low_value: Any
    high_value: Any
    #: the other parameters both points share
    fixed: tuple[tuple[str, Any], ...]
    metric: str
    low_metric: float
    high_metric: float

    @property
    def ratio(self) -> float:
        """Jump magnitude, always >= 1 (inf when one side is zero)."""
        lo, hi = sorted((abs(self.low_metric), abs(self.high_metric)))
        if lo == 0.0:
            return float("inf")
        return hi / lo


def detect_knife_edges(result: SweepResult,
                       edges: Sequence[EdgeSpec]) -> list[KnifeEdge]:
    """Flag adjacent grid points whose metric jumps by > ``factor``.

    Adjacency is along one axis at a time (the axis order recovered
    from the sweep's cartesian row order, which is the grid's: error
    rows keep their parameters), with every other parameter identical
    — the discrete analogue of a large partial derivative. Error rows and
    rows missing the metric are skipped; a jump from exactly zero to
    anything above ``min_jump`` is an infinite-ratio edge (the 6→5
    ``gc_stop_segments`` cliff is literally "copy-free vs copying").
    """
    names = result.param_names
    index = {}
    for row in result.rows:
        if "error" in row:
            continue
        point = tuple(row.get(n) for n in names)
        index[point] = row
    found: list[KnifeEdge] = []
    for spec in edges:
        for ai, axis in enumerate(names):
            values = result.axis_values(axis)
            for lo_v, hi_v in zip(values, values[1:]):
                for point, row in index.items():
                    if point[ai] != lo_v:
                        continue
                    other = point[:ai] + (hi_v,) + point[ai + 1:]
                    mate = index.get(other)
                    if mate is None:
                        continue
                    if spec.metric not in row or spec.metric not in mate:
                        continue
                    a = float(row[spec.metric])
                    b = float(mate[spec.metric])
                    if abs(b - a) < spec.min_jump:
                        continue
                    lo, hi = sorted((abs(a), abs(b)))
                    if lo != 0.0 and hi / lo < spec.factor:
                        continue
                    fixed = tuple(
                        (n, point[i]) for i, n in enumerate(names)
                        if i != ai
                    )
                    found.append(KnifeEdge(
                        param=axis, low_value=lo_v, high_value=hi_v,
                        fixed=fixed, metric=spec.metric,
                        low_metric=a, high_metric=b,
                    ))
    found.sort(key=lambda e: (-min(e.ratio, 1e18), e.metric, e.param,
                              str(e.fixed)))
    return found


def format_knife_edges(edges: Sequence[KnifeEdge],
                       limit: int = 10) -> str:
    """Render detected cliffs as an aligned table (worst first)."""
    from repro.bench.report import format_table

    if not edges:
        return "(no knife edges detected)"
    rows = []
    for e in edges[:limit]:
        ratio = "inf" if e.ratio == float("inf") else f"{e.ratio:.2f}x"
        fixed = " ".join(f"{k}={v}" for k, v in e.fixed)
        rows.append([e.param, f"{e.low_value}->{e.high_value}", e.metric,
                     e.low_metric, e.high_metric, ratio, fixed])
    table = format_table(
        ["axis", "step", "metric", "low", "high", "jump", "holding"],
        rows,
    )
    more = len(edges) - limit
    if more > 0:
        table += f"\n... and {more} more"
    return table
