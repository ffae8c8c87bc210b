"""Auto-tuner tests: descent and config round-trips."""

from __future__ import annotations

import json

import pytest

from repro.bench.scales import TEST_SCALE, get_scale
from repro.bench.sweep import GridSpec
from repro.bench.tune import (
    TuneResult,
    cluster_config_from_jsonable,
    cluster_config_to_jsonable,
    config_from_jsonable,
    config_to_jsonable,
    coordinate_descent,
    recommendation,
)


def bowl_runner(params):
    """A smooth objective with one optimum at (x=3, y=20)."""
    return {"score": 100.0 - (params["x"] - 3) ** 2
            - (params["y"] - 20) ** 2 / 100.0}


def bowl_grid(**overrides):
    base = dict(name="bowl",
                axes={"x": [1, 2, 3, 4, 5], "y": [0, 10, 20, 30]},
                runner=bowl_runner)
    base.update(overrides)
    return GridSpec(**base)


def test_descent_finds_planted_optimum():
    tr = coordinate_descent(bowl_grid(), TEST_SCALE)
    assert tr.params == {"x": 3, "y": 20}
    assert tr.metrics["score"] == 100.0
    # and it searched, it didn't enumerate: the grid has 20 points
    assert tr.evaluations < 20
    assert tr.trajectory[-1][1] == 100.0


def test_descent_is_deterministic():
    a = coordinate_descent(bowl_grid(), TEST_SCALE)
    b = coordinate_descent(bowl_grid(), TEST_SCALE)
    assert a.params == b.params
    assert a.trajectory == b.trajectory
    assert a.evaluations == b.evaluations


def test_descent_minimize():
    tr = coordinate_descent(bowl_grid(), TEST_SCALE, maximize=False)
    # minimizing the bowl drives to a far corner of the grid
    assert tr.params["x"] in (1, 5) and tr.params["y"] in (0, 30)


def test_descent_objective_override():
    def two_metrics(params):
        return {"score": params["x"], "p999_us": 10.0 * params["x"]}

    grid = bowl_grid(axes={"x": [1, 2, 3]}, runner=two_metrics)
    tr = coordinate_descent(grid, TEST_SCALE, objective="p999_us",
                            maximize=False)
    assert tr.objective == "p999_us"
    assert tr.params == {"x": 1}


def test_descent_steps_around_infeasible_points():
    def holed(params):
        if params["x"] == 3:  # the mid-axis start point
            raise RuntimeError("infeasible")
        return {"score": float(params["x"])}

    grid = bowl_grid(axes={"x": [1, 2, 3, 4, 5]}, runner=holed)
    tr = coordinate_descent(grid, TEST_SCALE)
    assert tr.params == {"x": 5}


def test_descent_all_infeasible_raises():
    def never(params):
        raise RuntimeError("infeasible")

    with pytest.raises(ValueError, match="no feasible point"):
        coordinate_descent(bowl_grid(axes={"x": [1, 2]}, runner=never),
                           TEST_SCALE)


# --------------------------------------------------------------------------
# config round-trips
# --------------------------------------------------------------------------

def test_system_config_json_roundtrip():
    from repro.bench.experiments import single_sweep_config

    scale = get_scale("tiny")
    cfg = single_sweep_config(scale, {"ru_pages": 8, "gc_stop_segments": 5,
                                      "wal_policy": "periodical",
                                      "value_size": 1024})
    blob = json.dumps(config_to_jsonable(cfg), sort_keys=True)
    rebuilt = config_from_jsonable(json.loads(blob))
    assert rebuilt == cfg  # dataclass equality, every nested field


def test_cluster_config_json_roundtrip():
    from repro.bench.experiments import cluster_sweep_config

    scale = get_scale("tiny")
    cc = cluster_sweep_config(scale, {"ru_pages": 4,
                                      "pid_policy": "share-wal",
                                      "gc_stop_segments": 5,
                                      "wal_policy": "always",
                                      "shards": 4, "value_size": 1024})
    blob = json.dumps(cluster_config_to_jsonable(cc), sort_keys=True)
    rebuilt = cluster_config_from_jsonable(json.loads(blob))
    assert rebuilt == cc


def test_recommendation_payload_validates_and_loads():
    from repro.bench.experiments import sweep_grids

    scale = get_scale("tiny")
    grid = sweep_grids("tiny")["cluster"]
    params = {"ru_pages": 4, "pid_policy": "collapse",
              "gc_stop_segments": 5, "wal_policy": "periodical",
              "shards": 4, "value_size": 1024}
    tr = TuneResult(workload="cluster", scale_name="tiny",
                    objective="score", maximize=True, params=params,
                    metrics={"score": 1.0},
                    trajectory=[(params, 1.0)], evaluations=1, passes=1)
    payload = recommendation(grid, scale, tr)
    # the emitted payload is pure JSON and loads back as real configs
    blob = json.loads(json.dumps(payload))
    cfg = config_from_jsonable(blob["system_config"])
    cc = cluster_config_from_jsonable(blob["cluster"])
    assert cc.num_shards == 4
    assert cc.sharing.value == "collapse"
    assert cfg == cc.system
    assert blob["params"] == params


def test_recommendation_requires_config_builder():
    with pytest.raises(ValueError, match="config builder"):
        recommendation(bowl_grid(), TEST_SCALE,
                       TuneResult(workload="bowl", scale_name="test",
                                  objective="score", maximize=True,
                                  params={}, metrics={}))
