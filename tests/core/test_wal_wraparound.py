"""Circular WAL region: generations that physically wrap the region."""

import pytest

from repro.core import LbaSpaceManager, MetadataStore
from repro.core.paths import WalPath
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme import NvmeDevice
from repro.persist import AofCodec, AofRecord, OP_SET
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


def world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=64,
                      pages_per_block=8)
    dev = NvmeDevice(env, g, FAST, CFG, fdp=True)
    ring = PassthruQueuePair(env, dev)
    # large snapshot fraction -> deliberately small WAL region
    space = LbaSpaceManager(dev.num_lbas, snapshot_fraction=0.8)
    meta = MetadataStore(ring, space.layout)
    acct = CpuAccount(env, "main")
    wal = WalPath(env, ring, space, meta, acct)
    return env, dev, space, wal, acct


def drive(env, gen):
    return env.run(until=env.process(gen))


def generation(env, wal, acct, tag, nbytes_per_rec=3000, nrecs=20):
    recs = [AofRecord(op=OP_SET, key=b"%s-%04d" % (tag, i),
                      value=bytes([i % 251]) * nbytes_per_rec)
            for i in range(nrecs)]

    def proc():
        for r in recs:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)

    drive(env, proc())
    return recs


def test_many_generations_wrap_the_region():
    env, dev, space, wal, acct = world()
    region = space.wal.wal_pages
    gens = 0
    # keep rotating until the head has physically wrapped twice
    while space.wal.head < 2 * region + 2:
        recs = generation(env, wal, acct, b"g%02d" % gens)

        def rotate():
            yield from wal.begin_generation(acct)
            yield from wal.retire_previous(acct)

        drive(env, rotate())
        gens += 1
        assert gens < 60, "region never wrapped — geometry too large"
    assert gens >= 3

    # one more live generation across the wrap point, then read back
    recs = generation(env, wal, acct, b"live")

    def read():
        data = yield from wal.read_all(acct)
        return data

    data = drive(env, read())
    decoded = list(AofCodec.decode_stream(data))
    assert [r.key for r in decoded] == [r.key for r in recs]
    assert [r.value for r in decoded] == [r.value for r in recs]


def test_wrapped_generation_with_unretired_previous():
    """Previous generation straddling the wrap must replay first."""
    env, dev, space, wal, acct = world()
    region = space.wal.wal_pages
    # advance near the region end
    while space.wal.head < region - 4:
        generation(env, wal, acct, b"fill", nbytes_per_rec=4000, nrecs=8)

        def rotate():
            yield from wal.begin_generation(acct)
            yield from wal.retire_previous(acct)

        drive(env, rotate())
    old = generation(env, wal, acct, b"old", nbytes_per_rec=4000, nrecs=4)

    def begin_only():
        yield from wal.begin_generation(acct)  # old stays live

    drive(env, begin_only())
    new = generation(env, wal, acct, b"new", nbytes_per_rec=4000, nrecs=4)

    def read():
        data = yield from wal.read_all(acct)
        return data

    decoded = list(AofCodec.decode_stream(drive(env, read())))
    assert [r.key for r in decoded] == [r.key for r in old + new]


def test_region_overflow_raises_cleanly():
    env, dev, space, wal, acct = world()
    region_bytes = space.wal.wal_pages * dev.lba_size

    def proc():
        yield from wal.append(b"x" * (region_bytes + 8192), acct)
        yield from wal.flush(acct)

    env.process(proc())
    with pytest.raises(OSError, match="WAL region full"):
        env.run()
