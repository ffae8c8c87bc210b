"""Closed-loop workload runner tests (on fast small systems)."""

import pytest

from repro import LoggingPolicy, SystemConfig, build_baseline, build_slimio
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig
from repro.net import (
    MixSpec,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    run_open_loop,
    summarize_point,
)
from repro.workloads import ClosedLoopWorkload, RedisBenchWorkload, YcsbAWorkload

FAST = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                  channel_transfer=0.2e-6)
CFG = SystemConfig(
    geometry=FlashGeometry(channels=2, dies_per_channel=2, blocks_per_die=48,
                           pages_per_block=32),
    nand=FAST,
    ftl=FtlConfig(op_ratio=0.15, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    server=ServerConfig(snapshot_chunk_entries=16),
    wal_flush_interval=0.01,
    dirty_limit_bytes=128 * 4096,
    fs_extent_pages=16,
)


def test_report_basic_fields():
    system = build_slimio(config=CFG)
    w = ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                           value_size=512)
    rep = w.run(system)
    system.stop()
    assert rep.ops == 400
    assert rep.duration > 0
    assert rep.rps > 0
    assert rep.set_p999 > 0
    assert rep.steady_memory > 0
    assert rep.timeline is not None


def test_snapshot_at_fraction_runs_one_snapshot():
    system = build_baseline(config=CFG)
    w = ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                           value_size=512, snapshot_at_fraction=0.5)
    rep = w.run(system)
    system.stop()
    assert rep.snapshot_count == 1
    assert rep.rps_wal_snapshot > 0
    assert rep.mean_snapshot_time > 0


def test_get_ratio_mixes_reads():
    system = build_slimio(config=CFG)
    w = ClosedLoopWorkload(clients=4, total_ops=600, key_count=100,
                           value_size=512, get_ratio=0.5,
                           preload_records=100)
    rep = w.run(system)
    system.stop()
    assert rep.get_p999 > 0
    assert rep.set_p999 > 0


def test_preload_populates_store_without_sim_time():
    system = build_slimio(config=CFG)
    w = ClosedLoopWorkload(clients=1, total_ops=1, key_count=50,
                           value_size=256, preload_records=50)
    w.preload(system)
    assert len(system.server.store) == 50
    assert system.env.now == 0.0
    system.stop()


def test_warmup_excluded_from_metrics():
    system = build_slimio(config=CFG)
    w = ClosedLoopWorkload(clients=4, total_ops=1000, key_count=100,
                           value_size=512)
    rep = w.run(system, warmup_ops=500)
    system.stop()
    # only the measured half is in the metrics
    assert rep.ops <= 520


def test_deterministic_across_runs():
    def once():
        system = build_slimio(config=CFG)
        w = ClosedLoopWorkload(clients=4, total_ops=300, key_count=80,
                               value_size=512, seed=42)
        rep = w.run(system)
        system.stop()
        return rep.duration, rep.rps, rep.set_p999

    assert once() == once()


def test_redisbench_defaults_match_paper_shape():
    w = RedisBenchWorkload()
    assert w.get_ratio == 0.0
    assert w.value_size == 4096
    assert w.clients == 50
    assert not w.zipfian


def test_ycsb_defaults_match_paper_shape():
    w = YcsbAWorkload()
    assert w.get_ratio == 0.5
    assert w.value_size == 2048
    assert w.clients == 8
    assert w.zipfian
    assert w.preload_records == w.key_count


def test_validation():
    with pytest.raises(ValueError):
        ClosedLoopWorkload(clients=0)
    with pytest.raises(ValueError):
        ClosedLoopWorkload(get_ratio=2.0)


def test_coordinated_omission_bias_exposed_past_capacity():
    """A closed loop lets the server throttle its own load generator,
    so its percentiles miss all queueing delay. Offered the same SETs
    open loop past capacity, the front end measures each one from its
    intended arrival: that p999 must blow up while the closed loop's
    (per-op service time only) stays flat."""
    system = build_slimio(config=CFG)
    closed = ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                                value_size=512).run(system)
    system.stop()

    system = build_slimio(config=CFG)
    env = system.env
    fe = NetFrontend(env, system.server, NetConfig())
    rate = 5e6  # far beyond capacity: the backlog only grows
    times = PoissonArrivals(rate, seed=1).times(400 / rate, t0=env.now)
    stream = OpStream(MixSpec(read=0.0, update=1.0), len(times), 100,
                      value_size=512)
    run_open_loop(env, fe, stream, times, clients=4, horizon=1.0)
    system.stop()
    point = summarize_point(fe, rate, len(times), 400 / rate)
    assert point.completed == len(times)
    assert point.p999 > 10 * closed.set_p999


def test_window_opens_at_the_first_measured_op_without_warmup():
    """With ``warmup_ops == 0`` the window used to stay closed: the
    report spanned everything since sim-time zero and counted the
    samples of whatever ran on the server before the workload."""
    system = build_slimio(config=CFG)
    env = system.env

    def fill():
        for i in range(150):
            yield from system.server.execute(
                ClientOp("SET", b"fill%d" % i, b"v" * 512))

    env.run(until=env.process(fill()))
    t_run_start = env.now
    assert t_run_start > 0
    w = ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                           value_size=512)
    rep = w.run(system)
    system.stop()
    assert rep.ops == 400
    assert rep.duration == env.now - t_run_start


def test_warmup_must_leave_something_to_measure():
    system = build_slimio(config=CFG)
    w = ClosedLoopWorkload(clients=2, total_ops=50, key_count=10,
                           value_size=64)
    with pytest.raises(ValueError):
        w.run(system, warmup_ops=50)
    system.stop()


def test_always_log_policy_through_runner():
    import dataclasses

    cfg = dataclasses.replace(CFG, policy=LoggingPolicy.ALWAYS)
    system = build_slimio(config=cfg)
    w = ClosedLoopWorkload(clients=4, total_ops=200, key_count=50,
                           value_size=512)
    rep = w.run(system)
    system.stop()
    assert rep.ops == 200
    # group commits happened
    assert system.wal.obs.total("wal_group_commits_total") > 0
