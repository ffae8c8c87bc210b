"""Pinned regressions: one test per crash-window bug the fault
campaigns flushed out. Each test reproduces the exact window the bug
lived in, so a reintroduction fails here before it reaches the matrix.
"""

import pytest

from repro import LoggingPolicy, SnapshotKind, SystemConfig, build_slimio
from repro.core.engine import SlimIOSystem
from repro.core.lba import SlotRole
from repro.core.paths import current_metadata
from repro.core.verify import verify_lba_space
from repro.faults import FaultyDevice
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig
from repro.nvme import NvmeDevice, NvmeError
from repro.persist.encoding import AofCodec, AofRecord, OP_SET
from repro.sim import Environment

from tests.faults.conftest import drive

FAST = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                  channel_transfer=0.5e-6)
SMALL = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=64,
                           pages_per_block=16),
    nand=FAST,
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    policy=LoggingPolicy.ALWAYS,
    # no auto-rotation: each test stages its own generation handoffs
    server=ServerConfig(wal_snapshot_trigger_bytes=None,
                        snapshot_chunk_entries=8),
)


def _build_on_faulty(cfg):
    """A system over an explicit FaultyDevice (for force_errors)."""
    env = Environment()
    num_pids = cfg.num_pids or max(8, cfg.placement.max_pid + 1)
    inner = NvmeDevice(env, cfg.geometry, cfg.nand, cfg.ftl, fdp=cfg.fdp,
                       num_pids=num_pids)
    faulty = FaultyDevice(inner)
    return SlimIOSystem(env, cfg, device=faulty), faulty


def _reboot(system, cfg):
    """Fresh system on the surviving image (a true power-cycle)."""
    image = system.device.image()
    env = Environment()
    num_pids = cfg.num_pids or max(8, cfg.placement.max_pid + 1)
    device = NvmeDevice(env, cfg.geometry, cfg.nand, cfg.ftl, fdp=cfg.fdp,
                        num_pids=num_pids)
    device.load_image(image)
    return SlimIOSystem(env, cfg, device=device)


# --------------------------------------------------------------- bug 1
def test_async_head_hint_builds_metadata_at_write_time():
    """Bug 1: the async WAL head-hint captured the Metadata when it was
    *scheduled*; a generation rotation landing before the write ran was
    durably reverted by the stale hint's higher seqno."""
    system = build_slimio(config=SMALL)
    env = system.env
    wp = system.wal_path
    acct = wp.account

    def setup():
        yield from wp.append([AofCodec.encode(
            AofRecord(OP_SET, b"a", b"x" * 64))], acct)
        yield from wp.flush(acct)  # schedules the async head-hint write
        # rotate before the async writer has had a chance to run (no
        # yield between the flush return and this call)
        yield from wp.begin_generation(acct)
        yield env.timeout(2e-3)  # now let every metadata write land
        meta = yield from system.meta_store.read(acct)
        return meta

    meta = drive(env, setup())
    assert meta.wal_gen_start == system.space.wal.gen_start
    assert meta.wal_prev_start == system.space.wal.prev_start
    assert meta.wal_prev_bytes == system.space.wal.prev_bytes
    system.stop()


# --------------------------------------------------------------- bug 2
def test_current_metadata_carries_every_field():
    """Bug 2 (unit): every durable metadata write goes through one
    builder that includes the wal_prev_* handoff and the slot table."""
    system = build_slimio(config=SMALL)
    space = system.space
    # raw cursor pokes: this test checks the *builder* carries every
    # field, not the protocol that normally moves them
    space.wal.gen_start = 7  # slimlint: ignore[SLIM008]
    space.wal.head = 9  # slimlint: ignore[SLIM008]
    space.wal.prev_start = 3  # slimlint: ignore[SLIM008]
    space.wal.prev_bytes = 777  # slimlint: ignore[SLIM008]
    meta = current_metadata(space)
    assert (meta.wal_gen_start, meta.wal_head) == (7, 9)
    assert (meta.wal_prev_start, meta.wal_prev_bytes) == (3, 777)
    assert meta.slot_roles == [int(r) for r in space.slots.roles]
    assert meta.slot_lengths == list(space.slots.lengths)
    system.stop()


def test_promotion_keeps_pending_prev_generation_durable():
    """Bug 2 (integration): promoting a snapshot while a previous WAL
    generation is still pending retirement must not durably drop the
    wal_prev_* handoff — a crash right after would lose acked records."""
    system = build_slimio(config=SMALL)
    env = system.env
    acct = system.wal_path.account

    def driver():
        for i in range(6):
            yield from system.server.execute(
                ClientOp("SET", b"k%d" % i, bytes([i + 1]) * 200))
        yield from system.wal_path.begin_generation(acct)
        for i in range(3):
            yield from system.server.execute(
                ClientOp("SET", b"n%d" % i, bytes([i + 9]) * 200))

    drive(env, driver())
    env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    env.run(until=env.now + 5e-3)  # drain trailing async metadata writes
    meta = drive(env, system.meta_store.read(acct))
    assert system.space.wal.prev_start is not None
    assert meta.wal_prev_start == system.space.wal.prev_start
    assert meta.wal_prev_bytes > 0
    # a crash right now still recovers every acked record
    system.crash()
    result = drive(env, system.recover(SnapshotKind.ON_DEMAND))
    assert result.data[b"k5"] == bytes([6]) * 200
    assert result.data[b"n2"] == bytes([11]) * 200
    system.stop()


# --------------------------------------------------------------- bug 3
def test_failed_promotion_rolls_back_and_retries_cleanly():
    """Bug 3: when the promotion's metadata write fails, the in-memory
    slot promotion must roll back (memory matches flash), the old
    snapshot stays authoritative, and a later attempt succeeds."""
    system, faulty = _build_on_faulty(SMALL)
    env = system.env

    def driver():
        for i in range(8):
            yield from system.server.execute(
                ClientOp("SET", b"k%d" % i, bytes([i + 1]) * 300))
        yield env.timeout(5e-3)  # drain async metadata writes

    drive(env, driver())
    roles_before = list(system.space.slots.roles)
    # fail the metadata A/B pages exactly max_attempts times: the ring
    # retries three times, then gives up and fails the snapshot child
    faulty.force_errors(0, 2, count=4, opcode="write")
    proc = system.server.start_snapshot(SnapshotKind.ON_DEMAND)
    with pytest.raises(NvmeError):
        env.run(until=proc)
    assert system.space.slots.roles == roles_before
    assert system.space.slots.slot_of(SlotRole.ONDEMAND_SNAPSHOT) is None
    assert system.wal_ring.obs.total("uring_retry_giveups_total") == 1

    # the fault budget is exhausted: the next attempt publishes cleanly
    env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert system.space.slots.slot_of(SlotRole.ONDEMAND_SNAPSHOT) is not None
    system.crash()
    result = drive(env, system.recover(SnapshotKind.ON_DEMAND))
    assert len(result.data) == 8
    system.stop()


# --------------------------------------------------------------- bug 4
def test_post_recovery_appends_survive_a_second_crash():
    """Bug 4: recovery left the partial tail page un-staged, so the next
    flush started a fresh page behind a zero gap — every post-recovery
    record was then invisible to the following recovery."""
    system = build_slimio(config=SMALL)
    env = system.env

    def phase(tag, n):
        for i in range(n):
            yield from system.server.execute(
                ClientOp("SET", b"%c%d" % (tag, i), bytes([i + 1]) * 120))

    drive(env, phase(ord("a"), 5))
    system.crash()
    r1 = drive(env, system.recover())
    assert len(r1.data) == 5
    assert r1.wal_tail == "clean"

    system.server.store.load(dict(r1.data))
    drive(env, phase(ord("b"), 4))
    system.crash()
    r2 = drive(env, system.recover())
    expected = dict(r1.data)
    for i in range(4):
        expected[b"b%d" % i] = bytes([i + 1]) * 120
    assert r2.data == expected
    system.stop()


# --------------------------------------------------------------- bug 5
def test_stale_retired_pages_not_adopted_and_wiped():
    """Bug 5: a crash between retire_previous's metadata write and its
    TRIMs strands retired-generation pages on flash; recovery must not
    re-adopt them past the head and must wipe them before new appends."""
    system = build_slimio(config=SMALL)
    env = system.env
    wp = system.wal_path
    acct = wp.account

    def setup():
        for i in range(3):
            yield from wp.append([AofCodec.encode(
                AofRecord(OP_SET, b"old%d" % i, b"A" * 150))], acct)
        yield from wp.flush(acct)
        yield from wp.begin_generation(acct)
        for i in range(2):
            yield from wp.append([AofCodec.encode(
                AofRecord(OP_SET, b"new%d" % i, b"B" * 150))], acct)
        yield from wp.flush(acct)
        # retire's first half only: metadata stops naming the old
        # generation; the crash lands before any TRIM is issued
        system.space.wal.retire_previous()
        yield from system.meta_store.write(
            current_metadata(system.space), acct)

    drive(env, setup())
    system.crash()
    result = drive(env, system.recover())
    assert result.data == {b"new0": b"B" * 150, b"new1": b"B" * 150}
    # the stale generation's pages were wiped by trim_beyond_head
    assert not any(system.device.peek(system.space.layout.wal_base, 1))
    system.stop()


# --------------------------------------------------------------- bug 6
def test_stale_prev_start_does_not_poison_replay():
    """Bug 6 (found by the error lane): durable metadata can still name
    a previous generation whose pages retire_previous already TRIMmed.
    Replaying the zeroed region at the stream head classified the whole
    WAL as interior-corrupt and discarded every acked record of the
    *current* generation."""
    system = build_slimio(config=SMALL)
    env = system.env
    wp = system.wal_path
    acct = wp.account

    def setup():
        yield from wp.append([AofCodec.encode(
            AofRecord(OP_SET, b"old", b"A" * 200))], acct)
        yield from wp.flush(acct)
        yield from wp.begin_generation(acct)
        for i in range(2):
            yield from wp.append([AofCodec.encode(
                AofRecord(OP_SET, b"new%d" % i, b"B" * 200))], acct)
        yield from wp.flush(acct)
        # the crash window: the TRIM ran, but the durable metadata
        # still names the previous generation
        wal = system.space.wal
        for lba, n in wal.contiguous_run(wal.prev_start,
                                         wal.gen_start - wal.prev_start):
            if n:
                ev = yield from wp.ring.deallocate(lba, n, acct)
                yield from wp.ring.wait(ev, acct)
        yield env.timeout(2e-3)

    drive(env, setup())
    system.crash()
    result = drive(env, system.recover())
    # current-generation records all survive; the TRIMmed previous
    # generation (covered by a durable snapshot in the real sequence)
    # is dropped rather than replayed as garbage
    assert result.data == {b"new0": b"B" * 200, b"new1": b"B" * 200}
    assert result.wal_corrupt_records == 0
    system.stop()


# ------------------------------------------------- first-metadata crash
def test_recover_with_blank_metadata_replays_wal():
    """A cut before (or tearing) the first-ever metadata write leaves
    both A/B copies blank while acked records sit in the WAL region;
    recovery must scan them out rather than report an empty store."""
    system = build_slimio(config=SMALL)
    env = system.env

    def driver():
        for i in range(4):
            yield from system.server.execute(
                ClientOp("SET", b"k%d" % i, bytes([i + 1]) * 100))

    drive(env, driver())
    page = system.device.lba_size
    system.device._data[0] = bytes(page)
    system.device._data[1] = bytes(page)

    rebooted = _reboot(system, SMALL)
    result = drive(rebooted.env,
                   rebooted.recover(SnapshotKind.WAL_TRIGGERED))
    assert result.data == {b"k%d" % i: bytes([i + 1]) * 100
                           for i in range(4)}
    system.stop()
    rebooted.stop()


def test_verify_tolerates_missing_metadata_only_when_asked():
    """The offline checker stays strict by default (zeroed metadata on a
    non-blank device is damage) but the crash harness can opt into the
    pre-first-metadata state and still count the WAL records."""
    system = build_slimio(config=SMALL)
    env = system.env

    def driver():
        for i in range(4):
            yield from system.server.execute(
                ClientOp("SET", b"k%d" % i, bytes([i + 1]) * 100))

    drive(env, driver())
    page = system.device.lba_size
    system.device._data[0] = bytes(page)
    system.device._data[1] = bytes(page)

    lay = system.space.layout
    strict = verify_lba_space(
        system.device, lay, snapshot_fraction=SMALL.snapshot_fraction)
    assert not strict.ok
    tolerant = verify_lba_space(
        system.device, lay, snapshot_fraction=SMALL.snapshot_fraction,
        allow_missing_metadata=True)
    assert tolerant.ok, tolerant.issues
    assert tolerant.wal_records >= 4
    system.stop()
