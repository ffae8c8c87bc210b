"""WAL manager policy semantics: ordering, group commit, backpressure."""


from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, F2fs, PageCache
from repro.nvme import NvmeDevice
from repro.persist import AofRecord, LoggingPolicy, OP_SET, WalManager
from repro.persist.file_backends import FileAppendSink
from repro.sim import Environment

from tests.persist.records import read_records

FAST = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


def world(policy, **wal_kw):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG)
    blk = BlockLayer(env, dev)
    cache = PageCache(env, blk, dirty_limit_bytes=128 * 4096)
    fs = F2fs(env, blk, cache, extent_pages=16)
    acct = CpuAccount(env, "main")
    wal = WalManager(env, FileAppendSink(fs), acct, policy=policy, **wal_kw)
    return env, wal, acct


def rec(i, size=32):
    return AofRecord(op=OP_SET, key=b"k%04d" % i, value=b"v" * size)


def log(wal, record):
    """Stage ``record`` and, under Always-Log, wait until it is durable
    (the server's per-command WAL sequence)."""
    seq = wal.stage(record)
    if wal.policy is LoggingPolicy.ALWAYS:
        yield from wal.ensure_durable(seq)


def test_record_order_preserved_across_concurrent_always_writers():
    env, wal, acct = world(LoggingPolicy.ALWAYS)
    staged = []

    def writer(base):
        for i in range(10):
            r = rec(base * 100 + i)
            seq = wal.stage(r)
            staged.append((seq, r))
            yield from wal.ensure_durable(seq)
            yield env.timeout(1e-6)

    procs = [env.process(writer(b)) for b in range(4)]
    for p in procs:
        env.run(until=p)
    records = env.run(until=env.process(read_records(wal.sink, acct)))
    # durable order equals staging order
    staged.sort()
    assert [r.key for r in records] == [r.key for _, r in staged]
    wal.close()


def test_group_commit_batches_concurrent_writers():
    env, wal, acct = world(LoggingPolicy.ALWAYS)

    def writer(i):
        yield from log(wal, rec(i))

    procs = [env.process(writer(i)) for i in range(20)]
    for p in procs:
        env.run(until=p)
    # far fewer sink flushes than records: the leader covered followers
    assert wal.obs.total("wal_sync_flushes_total") < 20
    assert wal.obs.total("wal_records_total") == 20
    wal.close()


def test_ensure_durable_is_idempotent():
    env, wal, acct = world(LoggingPolicy.ALWAYS)

    def proc():
        seq = wal.stage(rec(1))
        yield from wal.ensure_durable(seq)
        t0 = env.now
        yield from wal.ensure_durable(seq)  # no-op
        assert env.now == t0

    env.run(until=env.process(proc()))
    wal.close()


def test_periodical_does_not_block_writers():
    env, wal, acct = world(LoggingPolicy.PERIODICAL, flush_interval=0.01)

    def proc():
        t0 = env.now
        for i in range(50):
            wal.stage(rec(i))
        # staging is instantaneous: no simulated time passed
        assert env.now == t0
        yield env.timeout(0.05)

    env.run(until=env.process(proc()))
    assert wal.buffered_bytes == 0  # flusher drained
    wal.close()


def test_backpressure_blocks_then_releases():
    env, wal, acct = world(LoggingPolicy.PERIODICAL, flush_interval=0.005,
                           buffer_limit_bytes=2048)

    def proc():
        for i in range(40):
            wal.stage(rec(i, size=128))
        assert wal.over_buffer_limit
        t0 = env.now
        yield from wal.wait_capacity()
        assert env.now > t0
        assert not wal.over_buffer_limit

    env.run(until=env.process(proc()))
    assert wal.obs.total("wal_backpressure_waits_total") >= 1
    wal.close()


def test_close_releases_backpressure_waiters():
    env, wal, acct = world(LoggingPolicy.PERIODICAL, flush_interval=100.0,
                           buffer_limit_bytes=64)

    def waiter():
        wal.stage(rec(0, size=200))
        yield from wal.wait_capacity()

    p = env.process(waiter())

    def closer():
        yield env.timeout(1e-3)
        wal.close()

    env.process(closer())
    env.run(until=p)  # must terminate


def test_size_tracks_only_current_generation():
    env, wal, acct = world(LoggingPolicy.ALWAYS)

    def proc():
        yield from log(wal, rec(1, size=100))
        s1 = wal.size
        wal.rotate_begin()
        assert wal.size == 0
        yield from log(wal, rec(2, size=100))
        assert wal.size == s1

    env.run(until=env.process(proc()))
    wal.close()
