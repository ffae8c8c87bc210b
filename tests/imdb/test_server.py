"""Server tests over the baseline file backends."""

import pytest

from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, KVStore, Server, ServerConfig
from repro.kernel import BlockLayer, CpuAccount, F2fs, PageCache
from repro.nvme import NvmeDevice
from repro.persist import LoggingPolicy, SnapshotKind, WalManager, recover_store
from repro.persist.file_backends import (
    FileAppendSink,
    FileSnapshotSink,
    FileSnapshotSource,
)
from repro.sim import Environment

FAST_NAND = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                       channel_transfer=0.0)
FTL_CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                    gc_reserve_segments=2)


def build_server(policy=LoggingPolicy.PERIODICAL, trigger=None, segments=64):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=segments,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST_NAND, FTL_CFG)
    blk = BlockLayer(env, dev)
    cache = PageCache(env, blk, dirty_limit_bytes=256 * 4096)
    fs = F2fs(env, blk, cache, extent_pages=16)
    acct = CpuAccount(env, "redis-main")
    wal = WalManager(env, FileAppendSink(fs), acct, policy=policy,
                     flush_interval=0.05)
    cfg = ServerConfig(wal_snapshot_trigger_bytes=trigger,
                       snapshot_chunk_entries=16)
    server = Server(env, KVStore(), wal,
                    lambda kind: FileSnapshotSink(fs, f"{kind.value}.rdb"),
                    cfg)
    return env, server, fs


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def test_set_then_get():
    env, server, fs = build_server()

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"v"))
        v = yield from server.execute(ClientOp("GET", b"k"))
        return v

    assert drive(env, proc()) == b"v"
    assert server.metrics.set_latency.mean() > 0
    assert server.metrics.get_latency.mean() > 0
    server.stop()


def test_del_returns_existence():
    env, server, fs = build_server()

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"v"))
        r1 = yield from server.execute(ClientOp("DEL", b"k"))
        r2 = yield from server.execute(ClientOp("DEL", b"k"))
        return r1, r2

    assert drive(env, proc()) == (True, False)
    server.stop()


def test_invalid_op_rejected():
    with pytest.raises(ValueError):
        ClientOp("FLUSHALL", b"")


def test_single_cpu_serializes_clients():
    env, server, fs = build_server()
    done = []

    def client(i):
        yield from server.execute(ClientOp("SET", b"k%d" % i, b"v"))
        done.append(env.now)

    for i in range(5):
        env.process(client(i))
    env.run(until=env.process(wait_all(env, 5, done)))
    assert len(set(done)) == 5  # strictly ordered completions
    server.stop()


def wait_all(env, n, done):
    while len(done) < n:
        yield env.timeout(1e-3)


def test_on_demand_snapshot_roundtrip():
    env, server, fs = build_server()

    def proc():
        for i in range(40):
            yield from server.execute(ClientOp("SET", b"key%d" % i, b"x" * 200))
        p = server.start_snapshot(SnapshotKind.ON_DEMAND)
        stats = yield p
        return stats

    stats = drive(env, proc())
    assert stats.ok
    assert stats.entries == 40
    assert len(server.metrics.snapshots) == 1
    assert len(server.metrics.snapshot_windows) == 1
    # recover from the published snapshot and compare
    acct = CpuAccount(env, "rec")
    source = FileSnapshotSource(fs, "on-demand-snapshot.rdb")
    result = drive(env, recover_store(env, source, None, acct))
    assert result.data == server.store.as_dict()
    server.stop()


def test_snapshot_captures_fork_point_not_later_writes():
    env, server, fs = build_server()

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"before"))
        p = server.start_snapshot(SnapshotKind.ON_DEMAND)
        yield from server.execute(ClientOp("SET", b"k", b"after"))
        stats = yield p
        return stats

    drive(env, proc())
    acct = CpuAccount(env, "rec")
    source = FileSnapshotSource(fs, "on-demand-snapshot.rdb")
    result = drive(env, recover_store(env, source, None, acct))
    assert result.data == {b"k": b"before"}
    assert server.store.get(b"k") == b"after"
    server.stop()


def test_cow_copies_during_snapshot_overwrites():
    env, server, fs = build_server()

    def proc():
        for i in range(30):
            yield from server.execute(ClientOp("SET", b"key%d" % i, b"x" * 4000))
        p = server.start_snapshot(SnapshotKind.ON_DEMAND)
        for i in range(30):
            yield from server.execute(ClientOp("SET", b"key%d" % i, b"y" * 4000))
        yield p

    drive(env, proc())
    assert server.cow.copied_pages > 0
    assert server.metrics.memory.peak > server.store.used_bytes
    server.stop()


def test_only_one_snapshot_at_a_time():
    env, server, fs = build_server()

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"v"))
        p1 = server.start_snapshot(SnapshotKind.ON_DEMAND)
        p2 = server.start_snapshot(SnapshotKind.WAL_TRIGGERED)
        assert p2 is None
        yield p1

    drive(env, proc())
    assert len(server.metrics.snapshots) == 1
    server.stop()


def test_wal_snapshot_trigger_fires_and_rotates():
    env, server, fs = build_server(policy=LoggingPolicy.ALWAYS, trigger=4000)

    def proc():
        for i in range(60):
            yield from server.execute(ClientOp("SET", b"key%d" % (i % 10),
                                               b"z" * 200))
        # wait for any in-flight snapshot to finish
        while server.snapshot_in_progress:
            yield env.timeout(1e-3)

    drive(env, proc())
    kinds = [s.kind for s in server.metrics.snapshots]
    assert SnapshotKind.WAL_TRIGGERED in kinds
    assert server.wal.obs.total("wal_rotations_total") >= 1
    # WAL was rotated: its current generation is smaller than the trigger
    assert server.wal.size < 4000 * 2
    server.stop()


def test_phase_rps_split():
    env, server, fs = build_server()

    def proc():
        for i in range(50):
            yield from server.execute(ClientOp("SET", b"k%d" % i, b"v" * 500))
        p = server.start_snapshot(SnapshotKind.ON_DEMAND)
        while server.snapshot_in_progress:
            yield from server.execute(ClientOp("SET", b"k%d" % (env.now % 50),
                                               b"w" * 500))
        yield p

    drive(env, proc())
    rps = server.metrics.phase_rps()
    assert rps["wal_only"] > 0
    assert rps["wal_snapshot"] > 0
    assert rps["average"] > 0
    server.stop()


def test_metrics_window_restarts_while_the_registry_series_keep_growing():
    """``reset_metrics()`` opens a new window over the same samples:
    reports read what came after it, exporters (and slimbench's
    ``delta(probe(end), probe(start))``) the cumulative series."""
    from repro.obs import percentile

    env, server, fs = build_server()
    key = 'server_command_latency_seconds{op="SET",server="imdb"}'

    def sets(n):
        for i in range(n):
            yield from server.execute(ClientOp("SET", b"k%d" % i, b"v" * 300))

    drive(env, sets(40))
    first = server.metrics.set_latency
    before = server.obs.snapshot()[key]
    assert before["count"] == 40 == len(first)
    # one ledger: the snapshot's p99 is the report's estimator over
    # the very same samples, not a reservoir estimate
    assert before["p99"] == percentile(first, 99)
    assert before["sum"] == sum(first.tolist())

    server.reset_metrics()
    assert len(server.metrics.set_latency) == 0
    assert len(server.metrics.op_times) == 0
    drive(env, sets(25))
    after = server.obs.snapshot()[key]
    assert len(server.metrics.set_latency) == 25
    assert after["count"] == 65 and after["sum"] > before["sum"]
    assert after["p99"] == percentile(
        first.tolist() + server.metrics.set_latency.tolist(), 99)
    server.stop()


def test_server_without_wal_or_sink():
    env = Environment()
    server = Server(env, KVStore(), None, None)

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"v"))
        v = yield from server.execute(ClientOp("GET", b"k"))
        return v

    assert drive(env, proc()) == b"v"
    assert server.start_snapshot() is not None or True  # sink missing -> error path

    server.stop()


def test_snapshot_without_sink_raises():
    env = Environment()
    server = Server(env, KVStore(), None, None)

    def proc():
        yield from server.execute(ClientOp("SET", b"k", b"v"))
        p = server.start_snapshot()
        yield p

    env.process(proc())
    with pytest.raises(RuntimeError):
        env.run()


def test_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(set_cpu=-1)
    with pytest.raises(ValueError):
        ServerConfig(snapshot_chunk_entries=0)
