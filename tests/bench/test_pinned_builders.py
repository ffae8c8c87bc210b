"""Shared pinned-device builders against their hand-spelled twins.

The cluster and tailtrace experiments and both sweep grids used to spell
out their own pinned device (22 MB, 4x8 dies, 8 % OP, GC 3 -> 5, a
576 KB WAL trigger) and their own YCSB-A shape. They now build through
``pinned_cluster_config`` / ``single_sweep_config`` and one workload
helper. The reference twins below are those spellings, kept test-side:
every experiment call site and every grid point must produce the config
they produced, at every scale.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.bench import experiments as ex
from repro.bench.scales import get_scale
from repro.cluster import ClusterConfig
from repro.cluster.pids import SharingMode
from repro.flash import FlashGeometry, FtlConfig
from repro.persist import LoggingPolicy

SCALES = ("tiny", "test", "bench", "prod")


def ref_cluster_config(scale, design, num_shards):
    geometry = FlashGeometry.scaled(mb=22, channels=4, dies_per_channel=8,
                                    pages_per_block=8)
    ftl = FtlConfig(op_ratio=0.08, gc_trigger_segments=3,
                    gc_stop_segments=5, gc_reserve_segments=2)
    sys_cfg = scale.system_config(gc_pressure=True)
    sys_cfg = replace(sys_cfg, geometry=geometry, ftl=ftl,
                      snapshot_fraction=0.45,
                      server=replace(sys_cfg.server,
                                     wal_snapshot_trigger_bytes=576 * 1024))
    return ClusterConfig(num_shards=num_shards, design=design,
                         num_pids=8, system=sys_cfg)


def ref_cluster_sweep_config(scale, params):
    geometry = FlashGeometry.scaled(mb=22, channels=4, dies_per_channel=8,
                                    pages_per_block=int(params["ru_pages"]))
    ftl = FtlConfig(op_ratio=0.08, gc_trigger_segments=3,
                    gc_stop_segments=int(params["gc_stop_segments"]),
                    gc_reserve_segments=2)
    sys_cfg = scale.system_config(
        gc_pressure=True, policy=LoggingPolicy(params["wal_policy"]))
    sys_cfg = replace(sys_cfg, geometry=geometry, ftl=ftl,
                      snapshot_fraction=0.45,
                      server=replace(sys_cfg.server,
                                     wal_snapshot_trigger_bytes=576 * 1024))
    return ClusterConfig(num_shards=int(params["shards"]), design="slimio",
                         num_pids=8,
                         sharing=SharingMode(params["pid_policy"]),
                         system=sys_cfg)


def ref_single_sweep_config(scale, params):
    geometry = FlashGeometry.scaled(
        mb=scale.small_device_mb, channels=scale.channels,
        dies_per_channel=scale.dies_per_channel,
        pages_per_block=int(params["ru_pages"]))
    ftl = FtlConfig(op_ratio=0.08, gc_trigger_segments=3,
                    gc_stop_segments=int(params["gc_stop_segments"]),
                    gc_reserve_segments=2)
    cfg = scale.system_config(gc_pressure=True,
                              policy=LoggingPolicy(params["wal_policy"]))
    return replace(cfg, geometry=geometry, ftl=ftl)


def ref_cluster_workload_args(scale):
    return dict(clients=8, total_ops=2 * min(scale.ycsb_ops, 32_000),
                key_count=1500, snapshot_at_fraction=0.25)


def _grid_points(grid):
    names = list(grid.axes)
    for values in itertools.product(*grid.axes.values()):
        yield dict(zip(names, values))


@pytest.mark.parametrize("scale_name", SCALES)
def test_experiment_call_sites_match_the_twins(scale_name):
    scale = get_scale(scale_name)
    for design, n in itertools.product(("baseline", "slimio"), (1, 2, 4, 8)):
        assert (ex.pinned_cluster_config(scale, n, design)
                == ref_cluster_config(scale, design, n))
    for n in (2, 4):  # tailtrace: the same device, Always-Log
        ref = ref_cluster_config(scale, "slimio", n)
        assert ex.pinned_cluster_config(
            scale, n, policy=LoggingPolicy.ALWAYS) == replace(
                ref, system=replace(ref.system, policy=LoggingPolicy.ALWAYS))


@pytest.mark.parametrize("scale_name", SCALES)
def test_every_grid_point_matches_the_twins(scale_name):
    scale = get_scale(scale_name)
    grids = ex.sweep_grids(scale_name)
    for params in _grid_points(grids["cluster"]):
        assert (ex.cluster_sweep_config(scale, params)
                == ref_cluster_sweep_config(scale, params)), params
    for params in _grid_points(grids["single"]):
        assert (ex.single_sweep_config(scale, params)
                == ref_single_sweep_config(scale, params)), params


@pytest.mark.parametrize("scale_name", SCALES)
def test_pinned_workload_matches_the_twin(scale_name):
    scale = get_scale(scale_name)
    shape = ex._pinned_workload(scale).shape
    want = scale.ycsb_a(**ref_cluster_workload_args(scale))
    assert vars(shape) == vars(want)
    sized = ex._pinned_workload(scale, value_size=1024).shape
    assert vars(sized) == vars(scale.ycsb_a(
        **{**ref_cluster_workload_args(scale), "value_size": 1024}))


def test_cluster_grid_contains_the_experiments_cell():
    """One run path: the cluster grid point at the experiment's
    coordinates (4 SlimIO shards, whose PID allocator picks
    ``collapse``) measures exactly the experiment's 4-shard run."""
    scale = get_scale("tiny")
    from repro.cluster import build_cluster

    _, rep = ex._run(build_cluster, ex.pinned_cluster_config(scale, 4),
                     ex._pinned_workload(scale), scale.warmup_ops)
    point = ex.cluster_sweep_point(
        {"ru_pages": 8, "pid_policy": "collapse", "gc_stop_segments": 5,
         "wal_policy": "periodical", "shards": 4,
         "value_size": scale.ycsb_value}, "tiny")
    assert point["pid_mode"] == rep.pid_allocation["mode"] == "collapse"
    assert point["rps"] == rep.aggregate.rps
    assert point["p999_us"] == rep.aggregate.set_p999 * 1e6
    assert point["waf"] == max(rep.shard_waf)
