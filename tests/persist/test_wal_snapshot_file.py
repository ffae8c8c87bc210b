"""WAL manager + snapshot writer over the baseline file backends."""

import pytest

from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, Ext4, PageCache
from repro.nvme import NvmeDevice
from repro.persist import (
    AofRecord,
    LoggingPolicy,
    OP_SET,
    SnapshotKind,
    SnapshotWriterProcess,
    WalManager,
    recover_store,
)
from repro.persist.file_backends import (
    FileAppendSink,
    FileSnapshotSink,
    FileSnapshotSource,
)
from repro.sim import Environment

from tests.persist.records import read_records

FAST_NAND = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                       channel_transfer=0.0)
FTL_CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                    gc_reserve_segments=2)


@pytest.fixture
def world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST_NAND, FTL_CFG)
    blk = BlockLayer(env, dev)
    cache = PageCache(env, blk, dirty_limit_bytes=128 * 4096)
    fs = Ext4(env, blk, cache, extent_pages=16)
    return env, fs, dev


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def log(wal, record):
    """Stage ``record`` and, under Always-Log, wait until it is durable
    (the server's per-command WAL sequence)."""
    seq = wal.stage(record)
    if wal.policy is LoggingPolicy.ALWAYS:
        yield from wal.ensure_durable(seq)


def test_always_log_each_record_durable(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    sink = FileAppendSink(fs)
    wal = WalManager(env, sink, acct, policy=LoggingPolicy.ALWAYS)

    def proc():
        yield from log(wal, AofRecord(op=OP_SET, key=b"k1", value=b"v1"))
        yield from log(wal, AofRecord(op=OP_SET, key=b"k2", value=b"v2"))

    drive(env, proc())
    # crash: everything must already be on the device
    fs.cache.crash()
    records = drive(env, read_records(wal.sink, acct))
    # read after crash misses cache but hits device
    assert [(r.key, r.value) for r in records] == [(b"k1", b"v1"), (b"k2", b"v2")]
    assert wal.obs.total("wal_sync_flushes_total") == 2


def test_periodical_log_buffers_then_flushes(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    sink = FileAppendSink(fs)
    wal = WalManager(env, sink, acct, policy=LoggingPolicy.PERIODICAL,
                     flush_interval=0.01)

    def proc():
        for i in range(10):
            yield from log(wal, AofRecord(op=OP_SET, key=f"k{i}".encode(),
                                          value=b"v"))
        assert wal.buffered_bytes > 0  # not yet flushed
        yield env.timeout(0.05)  # let the flusher fire

    drive(env, proc())
    assert wal.buffered_bytes == 0
    assert wal.obs.total("wal_periodic_flushes_total") >= 1
    records = drive(env, read_records(wal.sink, acct))
    assert len(records) == 10
    wal.close()


def test_periodical_log_buffer_pressure_forces_flush(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    sink = FileAppendSink(fs)
    wal = WalManager(env, sink, acct, policy=LoggingPolicy.PERIODICAL,
                     flush_interval=100.0, buffer_limit_bytes=1024)

    def proc():
        for i in range(100):
            yield from log(wal, AofRecord(op=OP_SET, key=b"key", value=b"x" * 64))
        yield env.timeout(0.1)

    drive(env, proc())
    assert wal.obs.total("wal_periodic_flushes_total") >= 1
    wal.close()


def test_wal_size_counts_all_generations_bytes(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    wal = WalManager(env, FileAppendSink(fs), acct, policy=LoggingPolicy.ALWAYS)

    def proc():
        yield from log(wal, AofRecord(op=OP_SET, key=b"k", value=b"v" * 100))

    drive(env, proc())
    assert wal.size > 100


def test_wal_rotation_keeps_old_until_retired(world):
    from repro.persist.encoding import AofCodec

    env, fs, dev = world
    acct = CpuAccount(env, "main")
    sink = FileAppendSink(fs)
    wal = WalManager(env, sink, acct, policy=LoggingPolicy.ALWAYS)

    def proc():
        yield from log(wal, AofRecord(op=OP_SET, key=b"old", value=b"1"))
        wal.rotate_begin()
        yield from log(wal, AofRecord(op=OP_SET, key=b"new", value=b"2"))

    drive(env, proc())
    # current generation only counts post-rotation bytes
    assert wal.size == len(
        AofCodec.encode(AofRecord(op=OP_SET, key=b"new", value=b"2")))
    # both generations replay until the old one is retired
    records = drive(env, read_records(wal.sink, acct))
    assert [r.key for r in records] == [b"old", b"new"]
    assert fs.exists("appendonly.aof.0")

    drive(env, wal.retire_previous())
    records = drive(env, read_records(wal.sink, acct))
    assert [r.key for r in records] == [b"new"]
    assert not fs.exists("appendonly.aof.0")


def test_wal_records_between_fork_and_retire_survive(world):
    """The regression the rotation protocol exists for: a record logged
    while the snapshot child is still running must not vanish when the
    old generation is retired."""
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    wal = WalManager(env, FileAppendSink(fs), acct,
                     policy=LoggingPolicy.ALWAYS)

    def proc():
        yield from log(wal, AofRecord(op=OP_SET, key=b"pre", value=b"1"))
        wal.rotate_begin()  # fork instant
        yield from log(wal, AofRecord(op=OP_SET, key=b"during", value=b"2"))
        yield from wal.retire_previous()  # snapshot durable

    drive(env, proc())
    records = drive(env, read_records(wal.sink, acct))
    assert [r.key for r in records] == [b"during"]


def test_snapshot_roundtrip_through_file_sink(world):
    env, fs, dev = world
    items = [(f"key{i}".encode(), (f"val{i}" * 20).encode()) for i in range(200)]
    sink = FileSnapshotSink(fs, "dump.rdb")
    snap = SnapshotWriterProcess(env, items, sink, kind=SnapshotKind.ON_DEMAND,
                                 chunk_entries=32)
    stats = drive(env, snap.run())
    assert stats.ok
    assert stats.entries == 200
    assert stats.duration > 0
    assert fs.exists("dump.rdb")

    acct = CpuAccount(env, "recovery")
    source = FileSnapshotSource(fs, "dump.rdb")
    result = drive(env, recover_store(env, source, None, acct))
    assert result.data == dict(items)
    assert result.snapshot_entries == 200
    assert result.throughput > 0


def test_snapshot_survives_cache_crash_after_finalize(world):
    env, fs, dev = world
    items = [(b"k%d" % i, b"v" * 50) for i in range(50)]
    sink = FileSnapshotSink(fs)
    stats = drive(env, SnapshotWriterProcess(env, items, sink).run())
    assert stats.ok
    fs.cache.crash()
    acct = CpuAccount(env, "recovery")
    result = drive(env, recover_store(env, FileSnapshotSource(fs), None, acct))
    assert result.data == dict(items)


def test_snapshot_replaces_previous_only_on_success(world):
    env, fs, dev = world
    items_v1 = [(b"k", b"version1")]
    drive(env, SnapshotWriterProcess(env, items_v1, FileSnapshotSink(fs)).run())

    class ExplodingSink(FileSnapshotSink):
        def __init__(self, fs):
            super().__init__(fs)
            self._writes = 0

        def write(self, data, account):
            self._writes += 1
            if self._writes == 2:
                raise IOError("injected failure")
            yield from super().write(data, account)

    items_v2 = [(b"k", b"version2")]
    snap = SnapshotWriterProcess(env, items_v2, ExplodingSink(fs))

    def attempt():
        try:
            yield from snap.run()
        except IOError:
            pass

    drive(env, attempt())
    assert not snap.stats.ok
    acct = CpuAccount(env, "recovery")
    result = drive(env, recover_store(env, FileSnapshotSource(fs), None, acct))
    assert result.data == {b"k": b"version1"}  # old snapshot intact


def test_recovery_snapshot_plus_wal_replay(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    items = [(b"a", b"1"), (b"b", b"2")]
    drive(env, SnapshotWriterProcess(env, items, FileSnapshotSink(fs)).run())
    wal = WalManager(env, FileAppendSink(fs), acct, policy=LoggingPolicy.ALWAYS)

    def writes():
        yield from log(wal, AofRecord(op=OP_SET, key=b"b", value=b"2-new"))
        yield from log(wal, AofRecord(op=OP_SET, key=b"c", value=b"3"))

    drive(env, writes())
    r_acct = CpuAccount(env, "recovery")
    result = drive(env, recover_store(env, FileSnapshotSource(fs), wal.sink, r_acct))
    assert result.data == {b"a": b"1", b"b": b"2-new", b"c": b"3"}
    assert result.wal_records_applied == 2


def test_recovery_wal_only(world):
    env, fs, dev = world
    acct = CpuAccount(env, "main")
    wal = WalManager(env, FileAppendSink(fs), acct, policy=LoggingPolicy.ALWAYS)

    def writes():
        yield from log(wal, AofRecord(op=OP_SET, key=b"x", value=b"y"))

    drive(env, writes())
    result = drive(env, recover_store(env, None, wal.sink,
                                      CpuAccount(env, "rec")))
    assert result.data == {b"x": b"y"}
    assert result.snapshot_entries == 0


def test_snapshot_breakdown_has_memory_kernel_ssd_components(world):
    env, fs, dev = world
    items = [(b"k%d" % i, bytes(500)) for i in range(300)]
    stats = drive(env, SnapshotWriterProcess(env, items,
                                             FileSnapshotSink(fs)).run())
    assert stats.time_in_memory() > 0
    assert stats.time_in_kernel() > 0
    assert stats.time_in_memory() + stats.time_in_kernel() <= stats.duration * 1.01


def test_snapshot_compression_ratio_reported(world):
    env, fs, dev = world
    items = [(b"k%d" % i, b"\x00" * 1000) for i in range(100)]  # compressible
    stats = drive(env, SnapshotWriterProcess(env, items,
                                             FileSnapshotSink(fs)).run())
    assert stats.compression_ratio < 0.5


def test_invalid_configs(world):
    env, fs, dev = world
    acct = CpuAccount(env, "m")
    with pytest.raises(ValueError):
        WalManager(env, FileAppendSink(fs, "w2"), acct, flush_interval=0)
    with pytest.raises(ValueError):
        SnapshotWriterProcess(env, [], FileSnapshotSink(fs), chunk_entries=0)
