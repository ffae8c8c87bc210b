"""LBA-space verifier tests, including crash-point property tests."""

import struct
import zlib

import pytest

from repro import LoggingPolicy, SnapshotKind, SystemConfig, build_slimio
from repro.core.verify import verify_lba_space
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig

FAST = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                  channel_transfer=0.5e-6)
SMALL = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=64,
                           pages_per_block=16),
    nand=FAST,
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    policy=LoggingPolicy.ALWAYS,
    server=ServerConfig(wal_snapshot_trigger_bytes=40_000,
                        snapshot_chunk_entries=16),
    wal_flush_interval=0.01,
    fs_extent_pages=16,
)


def build_and_fill(n=30, value=300):
    system = build_slimio(config=SMALL)

    def filler():
        for i in range(n):
            yield from system.server.execute(
                ClientOp("SET", b"key%d" % i, bytes([i % 251]) * value))

    system.env.run(until=system.env.process(filler()))
    return system


def verify(system):
    return verify_lba_space(
        system.device, system.space.layout,
        snapshot_fraction=system.config.snapshot_fraction,
    )


def test_blank_device_verifies():
    system = build_slimio(config=SMALL)
    report = verify(system)
    assert report.blank_device
    assert report.ok
    system.stop()


def test_healthy_system_verifies():
    system = build_and_fill()
    system.env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    report = verify(system)
    assert report.ok, report.issues
    assert report.metadata is not None
    assert report.snapshot_entries.get("ONDEMAND_SNAPSHOT", 0) == 30
    assert report.wal_records >= 30
    system.stop()


def test_verify_after_many_rotations():
    system = build_and_fill(n=120, value=1000)

    def settle():
        while system.server.snapshot_in_progress:
            yield system.env.timeout(1e-3)

    system.env.run(until=system.env.process(settle()))
    report = verify(system)
    assert report.ok, report.issues
    assert "WAL_SNAPSHOT" in report.snapshot_entries
    system.stop()


def test_verify_detects_corrupt_snapshot_slot():
    system = build_and_fill()
    system.env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    from repro.core.lba import SlotRole

    slot = system.space.slots.slot_of(SlotRole.ONDEMAND_SNAPSHOT)
    base, _ = system.space.slot_extent(slot)
    # corrupt a byte INSIDE the published stream (it may be tiny)
    length = system.space.slots.lengths[slot]
    # fault injection: flip a byte directly in the stored page
    page = bytearray(system.device.peek(base))  # slimlint: ignore[SLIM001]
    page[max(length // 2, 16)] ^= 0xFF
    system.device._data[base] = bytes(page)
    report = verify(system)
    assert not report.ok
    assert any("corrupt" in i for i in report.issues)
    system.stop()


def test_verify_detects_destroyed_metadata():
    system = build_and_fill()
    system.device._data[0] = bytes(4096)
    system.device._data[1] = bytes(4096)
    report = verify(system)
    assert not report.ok
    assert any("metadata" in i for i in report.issues)
    system.stop()


@pytest.mark.parametrize("crash_fraction", [0.1, 0.35, 0.6, 0.85])
def test_crash_at_arbitrary_point_space_still_verifies(crash_fraction):
    """Kill the system mid-flight; the on-flash state must verify and
    recover to a consistent prefix."""
    system = build_slimio(config=SMALL)
    ops = 100

    def driver():
        for i in range(ops):
            yield from system.server.execute(
                ClientOp("SET", b"k%d" % (i % 25), bytes([i % 251]) * 700))
            if i == ops // 2:
                system.server.start_snapshot(SnapshotKind.ON_DEMAND)

    proc = system.env.process(driver())
    # run a fraction of the full driver wall-time, then power off
    system.env.run(until=0.5)  # ensure end time exists even if done
    try:
        system.env.run(until=proc)
    except Exception:
        pass
    end = system.env.now
    # fresh run, crash partway
    system2 = build_slimio(config=SMALL)

    def driver2():
        for i in range(ops):
            yield from system2.server.execute(
                ClientOp("SET", b"k%d" % (i % 25), bytes([i % 251]) * 700))
            if i == ops // 2:
                system2.server.start_snapshot(SnapshotKind.ON_DEMAND)

    system2.env.process(driver2())
    system2.env.run(until=max(end * crash_fraction, 1e-6))
    system2.crash()
    report = verify(system2)
    assert report.ok, report.issues
    # and recovery completes, yielding a consistent prefix
    result = system2.env.run(
        until=system2.env.process(system2.recover(SnapshotKind.ON_DEMAND)))
    live = system2.server.store.as_dict()
    for k, v in result.data.items():
        assert k in live  # never invents keys
    system.stop()
    system2.stop()


def test_verify_reports_a_slot_whose_blob_is_not_zlib():
    """A chunk with a valid CRC over bytes zlib rejects is a corrupt
    slot in the report, not a zlib.error out of the fsck."""
    from repro.core.lba import SlotRole

    system = build_and_fill()
    system.env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    slot = system.space.slots.slot_of(SlotRole.ONDEMAND_SNAPSHOT)
    base, _ = system.space.slot_extent(slot)
    page_size = system.device.lba_size
    npages = -(-system.space.slots.lengths[slot] // page_size)
    # fault injection: rewrite the first chunk's blob under a fresh CRC
    image = bytearray(b"".join(
        system.device.peek(base + i)  # slimlint: ignore[SLIM001]
        for i in range(npages)))
    at = 16                                      # RDB header size
    comp_len = struct.unpack_from("<BIII", image, at)[3]
    crc_at = at + 13 + comp_len
    image[at + 13:crc_at] = b"\x55" * comp_len
    struct.pack_into("<I", image, crc_at, zlib.crc32(image[at:crc_at]))
    for i in range(npages):
        system.device._data[base + i] = bytes(
            image[i * page_size:(i + 1) * page_size])
    report = verify(system)
    assert not report.ok
    assert any("snapshot corrupt: chunk blob" in i for i in report.issues)
    system.stop()
