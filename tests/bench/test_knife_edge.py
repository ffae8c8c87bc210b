"""Knife-edge detection: planted cliffs, noise floors, the PR-4 cliff.

A knife edge is two *adjacent* grid points — one axis stepped, every
other parameter fixed — whose metric jumps by more than a factor. The
detector's job is to surface configuration cliffs that point estimates
hide; the canonical one in this tree is ``gc_stop_segments`` 6→5 on
the pinned cluster device (copying GC vs copy-free), found in PR 4 and
re-found here from the real simulator at tiny scale.
"""

from __future__ import annotations

import pytest

from repro.bench.sweep import (
    EdgeSpec,
    KnifeEdge,
    detect_knife_edges,
    format_knife_edges,
    sweep,
)


def planted_runner(params):
    """Smooth everywhere except a cliff between x=2 and x=3 at y=1."""
    x, y = params["x"], params["y"]
    waf = 1.0
    if x >= 3 and y == 1:
        waf = 4.0  # the planted cliff
    return {"waf": waf, "rps": 100.0 - x}


@pytest.fixture()
def planted():
    return sweep({"x": [1, 2, 3], "y": [0, 1]}, planted_runner)


def test_planted_cliff_is_found(planted):
    edges = detect_knife_edges(planted, [EdgeSpec("waf", factor=2.0)])
    # the (x>=3, y=1) corner cliffs along both axes: stepping x at
    # fixed y=1, and stepping y at fixed x=3 — nothing else flags
    assert len(edges) == 2
    x_edge = next(e for e in edges if e.param == "x")
    assert (x_edge.low_value, x_edge.high_value) == (2, 3)
    assert x_edge.fixed == (("y", 1),)
    assert x_edge.low_metric == 1.0 and x_edge.high_metric == 4.0
    assert x_edge.ratio == 4.0
    y_edge = next(e for e in edges if e.param == "y")
    assert y_edge.fixed == (("x", 3),)


def test_smooth_metric_flags_nothing(planted):
    assert detect_knife_edges(planted, [EdgeSpec("rps", factor=2.0)]) == []


def test_non_adjacent_points_not_compared():
    # adjacency follows the grid's own axis order: on the full x axis
    # the 4x jump from x=1 to x=3 is two steps apart and only the
    # adjacent (2, 3) pair flags; on an x axis of [1, 3] the same two
    # points are neighbours
    res = sweep({"x": [1, 2, 3], "y": [1]}, planted_runner)
    edges = detect_knife_edges(res, [EdgeSpec("waf", factor=2.0)])
    assert [(e.low_value, e.high_value) for e in edges] == [(2, 3)]
    res = sweep({"x": [1, 3], "y": [1]}, planted_runner)
    edges = detect_knife_edges(res, [EdgeSpec("waf", factor=2.0)])
    assert [(e.low_value, e.high_value) for e in edges] == [(1, 3)]


def test_min_jump_suppresses_noise_floor():
    # 0.001 -> 0.003 is a 3x ratio nobody should page over
    def tiny(params):
        return {"waf_excess": 0.001 if params["x"] == 1 else 0.003}

    res = sweep({"x": [1, 2]}, tiny)
    assert detect_knife_edges(
        res, [EdgeSpec("waf_excess", factor=2.0, min_jump=0.01)]) == []
    assert len(detect_knife_edges(
        res, [EdgeSpec("waf_excess", factor=2.0)])) == 1


def test_zero_to_nonzero_is_infinite_ratio():
    def gc(params):
        return {"gc_copied": 0.0 if params["x"] == 1 else 200.0}

    res = sweep({"x": [1, 2]}, gc)
    (edge,) = detect_knife_edges(
        res, [EdgeSpec("gc_copied", factor=2.0, min_jump=64.0)])
    assert edge.ratio == float("inf")


def test_error_rows_are_skipped():
    def flaky(params):
        if params["x"] == 2:
            raise RuntimeError("infeasible")
        return {"waf": 1.0 if params["x"] == 1 else 4.0}

    res = sweep({"x": [1, 2, 3]}, flaky)
    # the cliff's neighbour (x=2) errored, so the 1->2 and 2->3 pairs
    # have no mate; nothing to compare, nothing flagged, no crash
    assert detect_knife_edges(res, [EdgeSpec("waf", factor=2.0)]) == []


def test_format_knife_edges():
    edge = KnifeEdge(param="gc_stop_segments", low_value=5, high_value=6,
                     fixed=(("ru_pages", 8),), metric="gc_copied",
                     low_metric=0.0, high_metric=191.0)
    text = format_knife_edges([edge])
    assert "gc_stop_segments" in text and "5->6" in text
    assert "inf" in text
    assert format_knife_edges([]) == "(no knife edges detected)"
    many = format_knife_edges([edge] * 12, limit=10)
    assert "... and 2 more" in many


def test_cluster_grid_refinds_the_gc_stop_cliff():
    """PR 4's cliff, re-derived from the real simulator.

    On the pinned 22MB/8-PID cluster device, ``gc_stop_segments=6``
    makes the collapsed-PID GC copy live pages while ``5`` stays
    copy-free; the full cluster grid must re-find that edge
    from measurements, not folklore. Run the two points of the real
    grid that straddle it and assert the detector flags the step.
    """
    from functools import partial

    from repro.bench.experiments import cluster_sweep_point, sweep_grids

    grid = sweep_grids("tiny")["cluster"]
    assert "gc_stop_segments" in grid.axes
    assert any(e.metric == "gc_copied" for e in grid.edges)

    fixed = {"ru_pages": 8, "pid_policy": "collapse",
             "wal_policy": "always", "shards": 4, "value_size": 1024}
    res = sweep(
        {**{k: [v] for k, v in fixed.items()},
         "gc_stop_segments": list(grid.axes["gc_stop_segments"])},
        partial(cluster_sweep_point, scale_name="tiny"),
    )
    edges = detect_knife_edges(res, grid.edges)
    gc_edges = [e for e in edges if e.param == "gc_stop_segments"
                and e.metric == "gc_copied"]
    assert gc_edges, f"gc_stop cliff not re-found; rows={res.rows}"
    (edge,) = gc_edges
    assert (edge.low_value, edge.high_value) == (5, 6)
    assert edge.low_metric == 0.0 and edge.high_metric > 0.0
