"""ClusterWorkload: one op stream fanned over shards, two-level report."""

import dataclasses

import numpy as np
import pytest

from repro import build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.cluster import ClusterConfig, build_cluster
from repro.imdb import ServerConfig
from repro.workloads import ClusterWorkload, YcsbAWorkload

from tests.cluster.conftest import SMALL_SYSTEM, make_cluster


def small_shape(**kw):
    args = dict(clients=4, total_ops=1200, key_count=150, value_size=256)
    args.update(kw)
    return YcsbAWorkload(**args)


@pytest.mark.parametrize("design", ["slimio", "baseline"])
def test_report_shape(design):
    cl = make_cluster(2, design=design)
    report = ClusterWorkload(small_shape()).run(cl)
    assert report.num_shards == 2
    assert report.shard_names == ["shard0", "shard1"]
    assert sum(r.ops for r in report.per_shard) == report.aggregate.ops
    assert report.aggregate.ops == 1200
    assert sum(report.routed) == 1200
    assert report.aggregate.rps > 0
    assert len(report.shard_waf) == 2
    assert all(w >= 1.0 for w in report.shard_waf)
    if design == "slimio":
        assert report.pid_allocation["mode"] == "dedicated"
    else:
        assert report.pid_allocation == {}
    cl.stop()


def test_warmup_excluded_from_metrics():
    cl = make_cluster(2)
    report = ClusterWorkload(small_shape()).run(cl, warmup_ops=400)
    # measured ops exclude the warmup prefix; clients already in
    # flight when the boundary trips may land just after the reset
    assert 800 <= report.aggregate.ops <= 800 + 4
    assert sum(report.routed) == 1200 - 400
    cl.stop()


def test_aggregate_erase_count_excludes_warmup():
    """The aggregate used to carry the FTL's cumulative erase count
    (since device creation) where a single instance reports erases
    since the window opened."""
    system = dataclasses.replace(SMALL_SYSTEM, server=ServerConfig(
        wal_snapshot_trigger_bytes=256 * 1024, snapshot_chunk_entries=16))
    cl = build_cluster(config=ClusterConfig(num_shards=2, system=system))
    ftl = cl.device.ftl
    at_open = []
    reset = cl.shards[0].server.reset_metrics

    def spy():
        at_open.append(ftl.stats.segments_erased)
        reset()

    cl.shards[0].server.reset_metrics = spy
    report = ClusterWorkload(small_shape(total_ops=4000, value_size=1024)
                             ).run(cl, warmup_ops=2000)
    assert len(at_open) == 1 and at_open[0] > 0  # warm-up reached GC
    assert report.aggregate.gc_segments_erased \
        == ftl.stats.segments_erased - at_open[0] > 0
    cl.stop()


@pytest.mark.parametrize("design,builder", [("slimio", build_slimio),
                                            ("baseline", build_baseline)])
def test_one_shard_cluster_reports_what_a_single_instance_reports(
        design, builder):
    """A single instance is a one-shard deployment: same driver, same
    report builder, so the per-shard report equals the single-instance
    one (WAF by the shard's streams == device WAF)."""
    cfg = TEST_SCALE.system_config(gc_pressure=True)

    def shape():
        return TEST_SCALE.ycsb_a(total_ops=6000, snapshot_at_fraction=0.3)

    system = builder(config=cfg)
    single = shape().run(system, warmup_ops=1000)
    system.stop()
    cl = build_cluster(config=ClusterConfig(num_shards=1, design=design,
                                            system=cfg))
    report = ClusterWorkload(shape()).run(cl, warmup_ops=1000)
    cl.stop()
    shard = report.per_shard[0]
    # every server-side cell; timeline and erase count are compared
    # apart because a shard report did not carry them before this
    # equivalence was put to use
    for name in ("ops", "duration", "rps", "rps_wal_only",
                 "rps_wal_snapshot", "set_p999", "get_p999", "set_mean",
                 "steady_memory", "peak_memory", "snapshot_times",
                 "snapshot_count", "waf"):
        assert getattr(single, name) == getattr(shard, name), name
    assert single.ops > 0 and single.snapshot_count >= 1
    # the flash cells are device-wide, so they sit on the aggregate
    for name in ("waf", "gc_pages_copied", "gc_segments_erased"):
        assert getattr(single, name) == getattr(report.aggregate, name), name


def test_one_shard_cluster_fills_timeline_and_erase_count_too():
    cfg = TEST_SCALE.system_config(gc_pressure=True)
    system = build_slimio(config=cfg)
    single = TEST_SCALE.ycsb_a(total_ops=6000).run(system, warmup_ops=1000)
    system.stop()
    cl = build_cluster(config=ClusterConfig(num_shards=1, system=cfg))
    report = ClusterWorkload(TEST_SCALE.ycsb_a(total_ops=6000)
                             ).run(cl, warmup_ops=1000)
    cl.stop()
    for a, b in zip(single.timeline, report.per_shard[0].timeline):
        assert np.array_equal(a, b)
    assert single.gc_segments_erased > 0
    assert report.aggregate.gc_segments_erased == single.gc_segments_erased


def test_snapshots_run_on_every_shard():
    cl = make_cluster(2)
    report = ClusterWorkload(
        small_shape(snapshot_at_fraction=0.5)
    ).run(cl)
    assert all(r.snapshot_count >= 1 for r in report.per_shard)
    assert report.aggregate.snapshot_count \
        == sum(r.snapshot_count for r in report.per_shard)
    cl.stop()


def test_preload_routes_by_slot():
    cl = make_cluster(4)
    small_shape(preload_records=100).preload(cl)
    total = sum(
        len(list(s.server.store.snapshot_items())) for s in cl
    )
    assert total == 100
    for shard in cl:
        for key, _ in shard.server.store.snapshot_items():
            assert cl.slot_map.shard_for_key(key) == shard.index
    cl.stop()
