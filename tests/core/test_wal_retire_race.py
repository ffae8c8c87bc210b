"""A fork that lands while ``retire_previous`` waits for the sink lock.

Snapshot 1 is durable, so the server asks the WAL to retire the
generation it covers. The sink lock is busy; before the retire gets it,
a second snapshot forks. The retire then crosses the new boundary first
and retires the generation that the second, not yet durable snapshot
covers. After a power cut, every record logged since the first fork must
still replay.
"""

import pytest

from repro.core import LbaSpaceManager, MetadataStore
from repro.core.paths import WalPath
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, Ext4, PageCache, PassthruQueuePair
from repro.nvme import NvmeDevice
from repro.persist import AofRecord, LoggingPolicy, OP_SET, WalManager
from repro.persist.file_backends import FileAppendSink
from repro.sim import Environment

from tests.persist.records import read_records

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
FTL = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)
GEOMETRY = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                         pages_per_block=16)


def _walpath(env, acct):
    dev = NvmeDevice(env, GEOMETRY, FAST, FTL, fdp=True)
    ring = PassthruQueuePair(env, dev)
    space = LbaSpaceManager(dev.num_lbas)
    sink = WalPath(env, ring, space, MetadataStore(ring, space.layout), acct)

    def after_power_cut():
        # what SlimIOSystem.recover does: a fresh space from the
        # durable metadata page, then the WAL path reads every live
        # generation
        space2 = LbaSpaceManager(dev.num_lbas)
        meta_store = MetadataStore(ring, space2.layout)
        meta = yield from meta_store.read(acct)
        space2.wal.gen_start = meta.wal_gen_start
        space2.wal.head = meta.wal_head
        space2.wal.prev_start = meta.wal_prev_start
        wal2 = WalPath(env, ring, space2, meta_store, acct)
        wal2._prev_gen_bytes = meta.wal_prev_bytes
        return (yield from read_records(wal2, acct))

    return sink, after_power_cut


def _file(env, acct):
    dev = NvmeDevice(env, GEOMETRY, FAST, FTL)
    blk = BlockLayer(env, dev)
    fs = Ext4(env, blk, PageCache(env, blk, dirty_limit_bytes=128 * 4096),
              extent_pages=16)
    sink = FileAppendSink(fs)

    def after_power_cut():
        fs.cache.crash()
        return (yield from read_records(sink, acct))

    return sink, after_power_cut


def _records(tag: bytes, n: int) -> list[AofRecord]:
    return [AofRecord(op=OP_SET, key=tag + b"%03d" % i, value=tag * 40)
            for i in range(n)]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 1(b') and 16: retire_previous crosses a boundary "
    "that forked while it waited and retires the generation the newer "
    "snapshot covers"))
@pytest.mark.parametrize("make_sink", [_walpath, _file],
                         ids=["WalPath", "FileAppendSink"])
def test_fork_while_retire_waits_keeps_the_new_generation(make_sink):
    env = Environment()
    acct = CpuAccount(env, "main")
    sink, after_power_cut = make_sink(env, acct)
    wal = WalManager(env, sink, acct, policy=LoggingPolicy.PERIODICAL,
                     flush_interval=100.0)
    old, new, late = _records(b"a", 8), _records(b"b", 8), _records(b"c", 8)

    def run():
        for r in old:
            wal.stage(r)
        wal.rotate_begin()  # snapshot 1 forks
        for r in new:
            wal.stage(r)
        yield from wal.flush_now()
        # snapshot 1 is durable; the server retires what it covers,
        # but the sink lock is busy
        busy = wal._sink_lock.request()
        yield busy
        retire = env.process(wal.retire_previous())
        yield env.timeout(1e-6)
        assert retire.is_alive
        wal.rotate_begin()  # snapshot 2 forks while the retire waits
        wal._sink_lock.release(busy)
        yield retire
        for r in late:
            wal.stage(r)
        yield from wal.flush_now()
        # power cut before snapshot 2 is durable
        return (yield from after_power_cut())

    p = env.process(run())
    records = env.run(until=p)
    wal.close()
    recovered = {r.key for r in records}
    assert {r.key for r in new + late} <= recovered
