"""Live resharding: migrate a slot range between shards.

The protocol reuses :func:`repro.core.replicate.full_sync` as the
transfer engine, restricted by a key filter to the migrating range:

1. **Transfer.** The source shard takes an On-Demand snapshot; the
   in-range entries are streamed to the destination over the modeled
   link. Writes that land on the source after the fork point (clients
   keep routing to it — the slot map is untouched during transfer)
   are captured by the sync's tap and forwarded until the backlog
   drains, so the destination converges on the live range contents.
2. **Cutover.** The slot map is flipped atomically on the simulated
   clock — ``move`` happens with no intervening event, so no op can
   route between "backlog drained" and "destination owns the range".
3. **Retire.** The source deletes the migrated keys through its normal
   command path, so the DELs are WAL-logged and a post-migration crash
   recovers a source *without* the moved keys and a destination *with*
   them — recovery stays correct on both sides.

WAF note: the retire phase is real write traffic (DEL records, later
WAL retirement), which is exactly why resharding on a shared device is
worth measuring rather than assuming free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.cluster.slots import key_hash_slot
from repro.core.replicate import ReplicationLink, SyncReport, full_sync
from repro.imdb import ClientOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.engine import SlimIOCluster

__all__ = ["MigrationReport", "migrate_slots"]


@dataclass
class MigrationReport:
    """Outcome of one slot-range migration."""

    slot_lo: int = 0
    slot_hi: int = 0
    src: int = 0
    dst: int = 0
    slots_moved: int = 0
    keys_migrated: int = 0
    keys_forwarded: int = 0
    keys_retired: int = 0
    duration: float = 0.0
    sync: SyncReport = field(default_factory=SyncReport)


def migrate_slots(
    cluster: SlimIOCluster,
    slot_lo: int,
    slot_hi: int,
    dst: int,
    link: ReplicationLink | None = None,
) -> Generator:
    """Move slots ``[slot_lo, slot_hi)`` to shard ``dst``; returns
    :class:`MigrationReport`. The range must currently be owned by one
    shard (migrate per-owner ranges separately otherwise); concurrent
    client traffic through the router is safe throughout.
    """
    slot_map = cluster.slot_map
    owners = {
        slot_map.shard_for_slot(s) for s in range(slot_lo, slot_hi)
    }
    if len(owners) != 1:
        raise ValueError(
            f"slots [{slot_lo}, {slot_hi}) span owners {sorted(owners)}; "
            f"migrate one owner's range at a time"
        )
    src = owners.pop()
    if src == dst:
        raise ValueError(f"slots [{slot_lo}, {slot_hi}) already on shard {dst}")
    source = cluster.shards[src]
    target = cluster.shards[dst]
    env = cluster.env
    t0 = env.now

    def in_range(key: bytes) -> bool:
        return slot_lo <= key_hash_slot(key) < slot_hi

    report = MigrationReport(slot_lo=slot_lo, slot_hi=slot_hi,
                             src=src, dst=dst)
    cluster.obs.event("reshard_begin", src=source.name, dst=target.name,
                      slot_lo=slot_lo, slot_hi=slot_hi)

    # 1) transfer + forward (the slot map still routes writes to the
    #    source; the sync tap relays the in-range ones)
    report.sync = yield from full_sync(
        source.system, target.system, link=link, key_filter=in_range,
    )
    report.keys_migrated = report.sync.snapshot_entries
    report.keys_forwarded = report.sync.records_forwarded

    # 2) cutover: atomic on the simulated clock (no yield until after)
    report.slots_moved = slot_map.move(slot_lo, slot_hi, dst)

    # 3) retire the moved keys on the source through its command path,
    #    so the DELs are WAL-logged and recovery stays correct
    moved_keys = [
        k for k, _ in source.server.store.snapshot_items() if in_range(k)
    ]
    for key in moved_keys:
        existed = yield from source.server.execute(ClientOp("DEL", key))
        if existed:
            report.keys_retired += 1

    report.duration = env.now - t0
    cluster.obs.event(
        "reshard_end", src=source.name, dst=target.name,
        slots=report.slots_moved, keys=report.keys_migrated,
        forwarded=report.keys_forwarded,
    )
    return report
