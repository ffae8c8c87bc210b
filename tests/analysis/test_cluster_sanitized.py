"""Sanitized cluster: live resharding cutover under full runtime
checking, plus a caught cross-slot write in partition coordinates."""

import pytest

from repro.analysis import SanitizerError
from repro.cluster import migrate_slots
from repro.nvme import WriteCmd

from tests.cluster.conftest import SMALL_SYSTEM, drive, route_fill


def _checks(cluster):
    return sum(s.system.sanitizer.summary()["checks"] for s in cluster)


def test_reshard_cutover_sanitized(sanitized_cluster):
    cl = sanitized_cluster(num_shards=2, system=SMALL_SYSTEM)
    route_fill(cl, 80)
    lo, hi = cl.slot_map.shard_range(1)
    mid = (lo + hi) // 2

    mig = drive(cl, migrate_slots(cl, mid, hi, dst=0))
    assert mig.slots_moved == hi - mid
    assert mig.keys_migrated > 0
    # let the periodic flushers drain the retirement DELs
    cl.env.run(until=cl.env.now + 0.05)

    assert _checks(cl) > 0
    for shard in cl:
        assert shard.system.sanitizer.summary()["violations"] == 0
    cl.stop()


def test_cross_slot_write_on_shard_caught(sanitized_cluster):
    """Partition-local coordinates: the shard sanitizer still sees a
    write into a published slot for what it is."""
    cl = sanitized_cluster(num_shards=2, system=SMALL_SYSTEM)
    shard = cl[0].system
    slots = shard.space.slots
    victim = next(i for i in range(3) if i != slots.reserve_slot)
    base, _cap = shard.space.slot_extent(victim)
    cmd = WriteCmd(lba=base, nlb=1,
                   data=[b"\x00" * shard.device.lba_size],
                   pid=shard.config.placement.wal_snapshot_pid)

    def proc():
        yield from shard.device.submit(cmd)  # slimlint: ignore[SLIM001]

    with pytest.raises(SanitizerError, match="only the reserve slot"):
        drive(cl, proc())
    cl.stop()
