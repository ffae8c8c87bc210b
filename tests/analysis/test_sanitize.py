"""Runtime sanitizer: clean passes on the nasty paths and a caught
violation for every check class (region, PID, cursor, slot, trim)."""

import pytest

from repro import LoggingPolicy, SystemConfig
from repro.analysis import SanitizerError
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp
from repro.nvme import DeallocateCmd, WriteCmd
from repro.persist import SnapshotKind

CFG = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                           pages_per_block=16),
    nand=NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                    channel_transfer=0.0),
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    policy=LoggingPolicy.ALWAYS,
    wal_flush_interval=0.01,
)


def run(env, gen):
    return env.run(until=env.process(gen))


def fill(system, n, tag=b"k"):
    def proc():
        for i in range(n):
            yield from system.server.execute(
                ClientOp("SET", b"%s:%d" % (tag, i), b"v" * 256))

    run(system.env, proc())


def inject(system, cmd):
    """Push one raw command through the sanitized device."""

    def proc():
        yield from system.device.submit(cmd)  # slimlint: ignore[SLIM001]

    run(system.env, proc())


def page(system, n=1):
    return b"\x00" * (system.device.lba_size * n)


# ------------------------------------------------------------------ clean runs
def test_clean_workload_counts_checks(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    fill(system, 50)
    summary = system.sanitizer.summary()
    assert summary["violations"] == 0
    assert summary["checks"] > 0
    system.stop()


def test_snapshot_cycle_clean(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    fill(system, 40)

    def snap():
        stats = yield system.server.start_snapshot(SnapshotKind.ON_DEMAND)
        return stats

    stats = run(system.env, snap())
    assert stats.entries == 40
    assert system.sanitizer.summary()["violations"] == 0
    system.space.slots.check_invariants()
    system.stop()


# ------------------------------------------------------------------ injections
def test_write_into_published_slot_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    slots = system.space.slots
    victim = next(i for i in range(3) if i != slots.reserve_slot)
    base, _cap = system.space.slot_extent(victim)
    cmd = WriteCmd(lba=base, nlb=1, data=[page(system)],
                   pid=system.config.placement.wal_snapshot_pid)
    with pytest.raises(SanitizerError, match="only the reserve slot"):
        inject(system, cmd)
    system.stop()


def test_wal_write_with_wrong_pid_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    lay = system.space.layout
    cmd = WriteCmd(lba=lay.wal_base, nlb=1, data=[page(system)],
                   pid=system.config.placement.metadata_pid)
    with pytest.raises(SanitizerError, match="expected WAL PID"):
        inject(system, cmd)
    system.stop()


def test_non_monotonic_wal_write_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    lay = system.space.layout
    cmd = WriteCmd(lba=lay.wal_base + 5, nlb=1, data=[page(system)],
                   pid=system.config.placement.wal_pid)
    with pytest.raises(SanitizerError, match="non-monotonic WAL write"):
        inject(system, cmd)
    system.stop()


def test_over_range_pid_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    lay = system.space.layout
    cmd = WriteCmd(lba=lay.wal_base, nlb=1, data=[page(system)],
                   pid=99)  # slimlint: ignore[SLIM002]
    with pytest.raises(SanitizerError, match="fall back to stream 0"):
        inject(system, cmd)
    system.stop()


def test_promotion_without_snapshot_write_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    with pytest.raises(SanitizerError, match="reserve-slot-first"):
        system.space.slots.promote(SnapshotKind.WAL_TRIGGERED, 0)
    system.stop()


def test_metadata_trim_caught(sanitized_slimio):
    system = sanitized_slimio(config=CFG)
    with pytest.raises(SanitizerError, match="never trimmed"):
        inject(system, DeallocateCmd(lba=0, nlb=1))
    system.stop()


# ------------------------------------------------------------------ nasty paths
def test_recovery_replay_resumes_cursor(sanitized_slimio):
    """Crash → §4.2 recovery → the sanitizer tracks the restored head."""
    system = sanitized_slimio(config=CFG)
    fill(system, 30)
    system.crash()
    result = run(system.env, system.recover())
    assert result.data.get(b"k:0") == b"v" * 256
    assert result.data.get(b"k:29") == b"v" * 256

    # a write continuing exactly at the restored head is legal...
    san = system.sanitizer
    cmd = WriteCmd(lba=san._wal_next, nlb=1, data=[page(system)],
                   pid=system.config.placement.wal_pid)
    inject(system, cmd)
    assert san.summary()["violations"] == 0

    # ...one that skips past it is a replay-ordering violation
    bad = WriteCmd(lba=san._wal_next + 7, nlb=1, data=[page(system)],
                   pid=system.config.placement.wal_pid)
    with pytest.raises(SanitizerError, match="non-monotonic WAL write"):
        inject(system, bad)
    system.stop()


def test_promotion_after_aborted_snapshot(sanitized_slimio):
    """A failed snapshot must not wedge the slot state machine."""
    system = sanitized_slimio(config=CFG)
    fill(system, 10)
    sink = system._make_snapshot_sink(SnapshotKind.ON_DEMAND)
    acct = system.main_account
    pg = system.device.lba_size

    def failed_then_clean():
        # first attempt streams a couple of pages, then dies pre-finalize
        yield from sink.write(b"a" * pg * 2, acct)
        sink.abort()
        # the retry starts over in the same reserve slot and promotes
        yield from sink.write(b"b" * pg, acct)
        yield from sink.finalize(acct)

    run(system.env, failed_then_clean())
    assert system.sanitizer.summary()["violations"] == 0
    system.space.slots.check_invariants()
    system.stop()
