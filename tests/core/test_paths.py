"""WAL-Path / Snapshot-Path / read-ahead tests over the FDP device."""

import pytest

from repro.core import LbaSpaceManager, MetadataStore, ReadAheadBuffer, SlotRole
from repro.core.paths import SlimIOSnapshotSource, SnapshotPath, WalPath
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme import NvmeDevice, WriteCmd, split_pages
from repro.persist import (
    AofCodec,
    AofRecord,
    OP_SET,
    SnapshotKind,
    SnapshotWriterProcess,
    recover_store,
)
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


@pytest.fixture
def world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG, fdp=True)
    ring = PassthruQueuePair(env, dev)
    space = LbaSpaceManager(dev.num_lbas)
    meta = MetadataStore(ring, space.layout)
    acct = CpuAccount(env, "main")
    return env, dev, ring, space, meta, acct


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def make_wal(env, ring, space, meta, acct):
    return WalPath(env, ring, space, meta, acct)


def test_wal_append_flush_readback(world):
    env, dev, ring, space, meta, acct = world
    wal = make_wal(env, ring, space, meta, acct)
    recs = [AofRecord(op=OP_SET, key=b"k%d" % i, value=b"v" * 100)
            for i in range(20)]

    def proc():
        for r in recs:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)
        data = yield from wal.read_all(acct)
        return data

    data = drive(env, proc())
    assert list(AofCodec.decode_stream(data)) == recs
    assert wal.size == sum(len(AofCodec.encode(r)) for r in recs)


def test_wal_tail_page_rewritten_across_flushes(world):
    env, dev, ring, space, meta, acct = world
    wal = make_wal(env, ring, space, meta, acct)
    r1 = AofRecord(op=OP_SET, key=b"a", value=b"1" * 10)
    r2 = AofRecord(op=OP_SET, key=b"b", value=b"2" * 10)

    def proc():
        yield from wal.append(AofCodec.encode(r1), acct)
        yield from wal.flush(acct)
        yield from wal.append(AofCodec.encode(r2), acct)
        yield from wal.flush(acct)
        data = yield from wal.read_all(acct)
        return data

    data = drive(env, proc())
    assert list(AofCodec.decode_stream(data)) == [r1, r2]
    # both records share the first WAL page
    assert space.wal.head == 1


def test_wal_records_durable_without_metadata_update(world):
    """Metadata head is a hint: records past it are found by scanning."""
    env, dev, ring, space, meta, acct = world
    wal = make_wal(env, ring, space, meta, acct)
    recs = [AofRecord(op=OP_SET, key=b"k%d" % i, value=b"v" * 3000)
            for i in range(8)]

    def write():
        for r in recs:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)

    drive(env, write())
    # crash: rebuild the path with a STALE head (simulating metadata lag)
    wal2 = make_wal(env, ring, space, meta, acct)
    space.wal.head = 1  # pretend metadata only saw the first page

    def read():
        data = yield from wal2.read_all(acct)
        return data

    data = drive(env, read())
    assert list(AofCodec.decode_stream(data)) == recs


def test_wal_generation_switch_and_retire(world):
    env, dev, ring, space, meta, acct = world
    wal = make_wal(env, ring, space, meta, acct)
    rec = AofRecord(op=OP_SET, key=b"old", value=b"x" * 5000)

    def proc():
        yield from wal.append(AofCodec.encode(rec), acct)
        yield from wal.flush(acct)
        old_head = space.wal.head
        yield from wal.begin_generation(acct)
        assert space.wal.gen_start == old_head
        yield from wal.append(
            AofCodec.encode(AofRecord(op=OP_SET, key=b"new", value=b"y")), acct)
        yield from wal.flush(acct)
        # both generations replay before retirement
        data = yield from wal.read_all(acct)
        assert [r.key for r in AofCodec.decode_stream(data)] == [b"old", b"new"]
        yield from wal.retire_previous(acct)
        data = yield from wal.read_all(acct)
        return data

    data = drive(env, proc())
    recs = list(AofCodec.decode_stream(data))
    assert [r.key for r in recs] == [b"new"]
    assert wal.size > 0
    # old generation pages were TRIMmed (white-box FTL assertion)
    assert dev.ftl.obs.total("ftl_deallocated_pages_total") >= 2


def test_wal_writes_carry_wal_pid(world):
    env, dev, ring, space, meta, acct = world
    wal = make_wal(env, ring, space, meta, acct)

    def proc():
        yield from wal.append(b"x" * 5000, acct)
        yield from wal.flush(acct)

    drive(env, proc())
    lba = space.wal.vpn_to_lba(0)
    # white-box: the test asserts which FTL stream the write landed in
    ppn = dev.ftl.mapped_ppn(lba)  # slimlint: ignore[SLIM006]
    seg = dev.geometry.segment_of_page(ppn)
    assert dev.ftl.segment_stream(seg) == wal.placement.wal_pid  # slimlint: ignore[SLIM006]


def snapshot_through_path(env, ring, space, meta, kind, items,
                          chunk_entries=16):
    sink = SnapshotPath(env, ring, space, meta, kind)
    writer = SnapshotWriterProcess(env, items, sink, kind=kind,
                                   chunk_entries=chunk_entries)
    p = env.process(writer.run())
    return env.run(until=p), sink


def test_snapshot_path_roundtrip(world):
    env, dev, ring, space, meta, acct = world
    items = [(b"key%d" % i, b"v" * 300) for i in range(100)]
    stats, sink = snapshot_through_path(env, ring, space, meta,
                                        SnapshotKind.ON_DEMAND, items)
    assert stats.ok
    assert space.slots.slot_of(SlotRole.ONDEMAND_SNAPSHOT) is not None
    source = SlimIOSnapshotSource(ring, space, SnapshotKind.ON_DEMAND)
    result = drive(env, recover_store(env, source, None,
                                      CpuAccount(env, "rec")))
    assert result.data == dict(items)


def test_snapshot_path_writes_carry_kind_pid(world):
    env, dev, ring, space, meta, acct = world
    items = [(b"k", b"v" * 100)]
    _, sink = snapshot_through_path(env, ring, space, meta,
                                    SnapshotKind.WAL_TRIGGERED, items)
    slot = space.slots.slot_of(SlotRole.WAL_SNAPSHOT)
    base, _ = space.slot_extent(slot)
    # white-box: the test asserts which FTL stream the write landed in
    ppn = dev.ftl.mapped_ppn(base)  # slimlint: ignore[SLIM006]
    seg = dev.geometry.segment_of_page(ppn)
    assert dev.ftl.segment_stream(seg) == sink.placement.wal_snapshot_pid  # slimlint: ignore[SLIM006]


def test_snapshot_promotion_retires_old_slot(world):
    env, dev, ring, space, meta, acct = world
    items1 = [(b"gen1", b"a" * 4000)]
    items2 = [(b"gen2", b"b" * 4000)]
    snapshot_through_path(env, ring, space, meta,
                          SnapshotKind.WAL_TRIGGERED, items1)
    slot1 = space.slots.slot_of(SlotRole.WAL_SNAPSHOT)
    snapshot_through_path(env, ring, space, meta,
                          SnapshotKind.WAL_TRIGGERED, items2)
    slot2 = space.slots.slot_of(SlotRole.WAL_SNAPSHOT)
    assert slot1 != slot2
    assert space.slots.roles[slot1] == SlotRole.RESERVE
    # latest snapshot is the one recovered
    source = SlimIOSnapshotSource(ring, space, SnapshotKind.WAL_TRIGGERED)
    result = drive(env, recover_store(env, source, None,
                                      CpuAccount(env, "rec")))
    assert result.data == dict(items2)


def test_snapshot_abort_preserves_previous(world):
    env, dev, ring, space, meta, acct = world
    items1 = [(b"k", b"good")]
    snapshot_through_path(env, ring, space, meta,
                          SnapshotKind.ON_DEMAND, items1)

    sink = SnapshotPath(env, ring, space, meta, SnapshotKind.ON_DEMAND)

    class Boom(Exception):
        pass

    def failing():
        yield from sink.write(b"partial" * 100, acct)
        raise Boom()

    def attempt():
        try:
            yield from failing()
        except Boom:
            sink.abort()

    drive(env, attempt())
    space.slots.check_invariants()
    source = SlimIOSnapshotSource(ring, space, SnapshotKind.ON_DEMAND)
    result = drive(env, recover_store(env, source, None,
                                      CpuAccount(env, "rec")))
    assert result.data == dict(items1)


def test_snapshot_slot_overflow_detected(world):
    env, dev, ring, space, meta, acct = world
    cap_bytes = space.layout.slot_lbas * dev.lba_size
    sink = SnapshotPath(env, ring, space, meta, SnapshotKind.ON_DEMAND)

    def proc():
        yield from sink.write(bytes(cap_bytes + 4096 * 9), acct)

    env.process(proc())
    with pytest.raises(OSError, match="slot overflow"):
        env.run()


def test_missing_snapshot_source_raises(world):
    env, dev, ring, space, meta, acct = world
    with pytest.raises(FileNotFoundError):
        SlimIOSnapshotSource(ring, space, SnapshotKind.ON_DEMAND)


def test_readahead_buffer_sequential_read(world):
    env, dev, ring, space, meta, acct = world
    page = dev.lba_size
    payload = bytes(range(256)) * (page // 256) * 8

    def seed():
        # raw seeding of device state for the read-side fixture
        yield from dev.submit(  # slimlint: ignore[SLIM001]
            WriteCmd(lba=100, nlb=8,  # slimlint: ignore[SLIM007]
                     data=split_pages(payload, page))
        )

    drive(env, seed())
    ra = ReadAheadBuffer(ring, base_lba=100, npages=8, window_pages=4,
                         batch_pages=2)

    def read():
        out = bytearray()
        for off in range(0, 8 * page, 3000):  # unaligned strides
            n = min(3000, 8 * page - off)
            piece = yield from ra.read(off, n, acct)
            out.extend(piece)
        return bytes(out)

    assert drive(env, read()) == payload


def test_readahead_bounds_checked(world):
    env, dev, ring, space, meta, acct = world
    ra = ReadAheadBuffer(ring, base_lba=0, npages=2)

    def proc():
        yield from ra.read(0, 3 * 4096, acct)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()
    with pytest.raises(ValueError):
        ReadAheadBuffer(ring, 0, 2, window_pages=0)
