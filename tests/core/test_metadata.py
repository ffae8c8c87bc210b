"""Metadata codec + dual-copy store tests."""

import pytest

from repro.core import LbaLayout, Metadata, MetadataCodec, MetadataStore
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme import NvmeDevice
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


@pytest.fixture
def world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG, fdp=True)
    ring = PassthruQueuePair(env, dev)
    layout = LbaLayout.partition(dev.num_lbas)
    store = MetadataStore(ring, layout)
    acct = CpuAccount(env, "meta")
    return env, dev, store, acct


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def test_codec_roundtrip():
    m = Metadata(seqno=7, wal_gen_start=100, wal_head=250,
                 slot_roles=[1, 0, 3], slot_lengths=[12345, 0, 0])
    page = MetadataCodec.encode(m, 4096)
    assert len(page) == 4096
    out = MetadataCodec.decode(page)
    assert out == m


def test_codec_blank_page_is_none():
    assert MetadataCodec.decode(bytes(4096)) is None


def test_codec_corrupt_crc_is_none():
    m = Metadata(seqno=1)
    page = bytearray(MetadataCodec.encode(m, 4096))
    page[12] ^= 0xFF
    assert MetadataCodec.decode(bytes(page)) is None


def test_codec_short_page_is_none():
    assert MetadataCodec.decode(b"tiny") is None


def test_metadata_slot_count_enforced():
    with pytest.raises(ValueError):
        Metadata(slot_roles=[0, 0], slot_lengths=[0, 0])


def test_store_write_read_roundtrip(world):
    env, dev, store, acct = world
    m = Metadata(wal_gen_start=5, wal_head=42)

    def proc():
        yield from store.write(m, acct)
        out = yield from store.read(acct)
        return out

    out = drive(env, proc())
    assert out.wal_head == 42
    assert out.seqno == 1


def test_store_alternates_copies_and_keeps_freshest(world):
    env, dev, store, acct = world

    def proc():
        yield from store.write(Metadata(wal_head=1), acct)
        yield from store.write(Metadata(wal_head=2), acct)
        yield from store.write(Metadata(wal_head=3), acct)
        out = yield from store.read(acct)
        return out

    out = drive(env, proc())
    assert out.wal_head == 3
    assert out.seqno == 3
    # both physical pages hold valid (different-seqno) copies — the
    # white-box peek is the point of the test
    a = MetadataCodec.decode(dev.peek(0))  # slimlint: ignore[SLIM001]
    b = MetadataCodec.decode(dev.peek(1))  # slimlint: ignore[SLIM001]
    assert {a.seqno, b.seqno} == {2, 3}


def test_store_survives_torn_latest_copy(world):
    env, dev, store, acct = world

    def proc():
        yield from store.write(Metadata(wal_head=10), acct)
        yield from store.write(Metadata(wal_head=20), acct)

    drive(env, proc())
    # corrupt the freshest copy in place (torn write)
    newest_lba = 0 if MetadataCodec.decode(dev.peek(0)).seqno == 2 else 1  # slimlint: ignore[SLIM001]
    dev._data[newest_lba] = bytes(4096)

    def read():
        out = yield from store.read(acct)
        return out

    out = drive(env, read())
    assert out.wal_head == 10  # previous consistent state


def test_store_blank_device_reads_none(world):
    env, dev, store, acct = world

    def read():
        out = yield from store.read(acct)
        return out

    assert drive(env, read()) is None


def test_store_seqno_continues_after_recovery(world):
    env, dev, store, acct = world

    def proc():
        yield from store.write(Metadata(wal_head=1), acct)

    drive(env, proc())
    # a fresh store (post-restart) must not reuse seqnos
    store2 = MetadataStore(store.ring, store.layout)

    def proc2():
        yield from store2.read(acct)
        yield from store2.write(Metadata(wal_head=2), acct)
        out = yield from store2.read(acct)
        return out

    out = drive(env, proc2())
    assert out.seqno == 2
    assert out.wal_head == 2


def test_store_requires_two_pages():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG)
    ring = PassthruQueuePair(env, dev)
    lay = LbaLayout(total_lbas=dev.num_lbas, metadata_lbas=1, slot_lbas=10)
    with pytest.raises(ValueError):
        MetadataStore(ring, lay)
