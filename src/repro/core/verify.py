"""Offline consistency checker for a SlimIO LBA space (fsck-style).

Inspects a device *as a crash would leave it* — through the data plane
only, no in-memory state — and validates every invariant the §4.2
design promises:

* at least one metadata copy decodes (unless the device is blank);
* slot roles form a legal assignment (exactly one reserve, no
  duplicate roles);
* every published snapshot slot decodes as a complete, CRC-valid RDB
  stream of exactly the length metadata records;
* the WAL generation chain decodes from its oldest live record, and
  the byte length metadata claims for a retiring generation matches a
  record boundary;
* WAL/snapshot/metadata regions do not overlap.

Returns a :class:`VerifyReport`; ``ok`` is True when no issues were
found. Used by the crash-recovery property tests: after killing the
system at an arbitrary instant, the space must still verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lba import LbaLayout, SlotRole
from repro.core.metadata import Metadata, MetadataCodec
from repro.nvme import NvmeDevice
from repro.persist.encoding import AofReader, CorruptRecord, RdbReader
from repro.persist.interfaces import READ_WINDOW_PAGES

__all__ = ["VerifyReport", "verify_lba_space"]


@dataclass
class VerifyReport:
    """Findings of one verification pass."""

    blank_device: bool = False
    metadata: Metadata | None = None
    issues: list[str] = field(default_factory=list)
    snapshot_entries: dict[str, int] = field(default_factory=dict)
    wal_records: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def problem(self, msg: str) -> None:
        self.issues.append(msg)


def _read(device: NvmeDevice, lba: int, n: int) -> bytes:
    """Zero-time raw read of ``n`` stored pages (offline inspection)."""
    # the verifier is the offline fsck: raw access is its whole job
    return device.peek(lba, n)  # slimlint: ignore[SLIM001]


def verify_lba_space(
    device: NvmeDevice,
    layout: LbaLayout | None = None,
    snapshot_fraction: float = 0.45,
    allow_missing_metadata: bool = False,
) -> VerifyReport:
    """Validate the on-device state of a SlimIO deployment.

    ``allow_missing_metadata`` accepts a device with data but no valid
    metadata copy — the state a power cut before (or tearing) the
    first-ever metadata write leaves behind. Crash harnesses enable
    it; offline fsck keeps the default and reports the anomaly.
    """
    report = VerifyReport()
    lay = layout or LbaLayout.partition(
        device.num_lbas, snapshot_fraction=snapshot_fraction
    )

    # region geometry sanity
    if lay.wal_base <= lay.snapshot_base:
        report.problem("snapshot region does not precede WAL region")
    if lay.wal_lbas <= 0:
        report.problem("empty WAL region")

    # metadata: freshest valid copy, judged as MetadataStore.read does
    best: Metadata | None = None
    rejected = False
    for i in range(lay.metadata_lbas):
        meta = MetadataCodec.decode(_read(device, lay.metadata_base + i, 1))
        if meta is None:
            continue
        problem = meta.problem(lay, device.lba_size)
        if problem is not None:
            rejected = True
            report.problem(f"metadata copy {i} rejected: {problem}")
        elif best is None or meta.seqno > best.seqno:
            best = meta
    if best is None:
        if rejected:
            return report  # recovery would raise MetadataError
        if device.written_lbas() == 0:
            report.blank_device = True
            return report
        if not allow_missing_metadata:
            report.problem("no valid metadata copy on a non-blank device")
            return report
        # A crash before — or tearing — the first-ever metadata write
        # is a legal state: flash already holds acknowledged WAL
        # records (and possibly a garbage metadata page) while both
        # A/B copies are invalid. Recovery replays the WAL from vpn 0
        # by forward scan; mirror that instead of flagging it.
        wal = AofReader()
        for vpn in range(lay.wal_lbas):
            page = _read(device, lay.wal_base + vpn, 1)
            if not any(page):
                break
            wal.feed(page)
        report.wal_records = wal.count
        return report
    report.metadata = best

    # published snapshots decode completely (roles and lengths are
    # legal: Metadata.problem passed)
    roles = [SlotRole(r) for r in best.slot_roles]
    for idx, role in enumerate(roles):
        if role not in (SlotRole.WAL_SNAPSHOT, SlotRole.ONDEMAND_SNAPSHOT):
            continue
        length = best.slot_lengths[idx]
        base = lay.slot_base(idx)
        npages = -(-length // device.lba_size)
        reader = RdbReader()
        for first in range(0, npages, READ_WINDOW_PAGES):
            run = min(READ_WINDOW_PAGES, npages - first)
            window = _read(device, base + first, run)
            reader.feed(window[:length - first * device.lba_size])
        try:
            reader.finish()
        except CorruptRecord as exc:
            report.problem(f"slot {idx} ({role.name}) snapshot corrupt: {exc}")
            continue
        report.snapshot_entries[role.name] = reader.entries

    # WAL chain decodes from the oldest live generation
    wal_pages = lay.wal_lbas
    oldest = (
        best.wal_prev_start if best.wal_prev_start is not None
        else best.wal_gen_start
    )

    wal = AofReader()

    def read_vpns(start: int, end: int, nbytes: int | None = None) -> None:
        """Feed WAL pages ``[start, end)`` to ``wal``, the first
        ``nbytes`` of them when given, one page run at a time."""
        vpn = start
        while vpn < end:
            lba = vpn % wal_pages
            run = min(end - vpn, wal_pages - lba, READ_WINDOW_PAGES)
            window = _read(device, lay.wal_base + lba, run)
            if nbytes is not None:
                window = window[:max(nbytes, 0)]
                nbytes -= len(window)
            wal.feed(window)
            vpn += run

    if best.wal_prev_start is not None:
        read_vpns(best.wal_prev_start, best.wal_gen_start,
                  best.wal_prev_bytes)
        if wal.consumed != best.wal_prev_bytes:
            report.problem(
                "previous WAL generation does not end on a record boundary"
            )
    read_vpns(best.wal_gen_start, best.wal_head)
    # scan past the head hint, as recovery does
    vpn = best.wal_head
    limit = oldest + wal_pages
    while vpn < limit:
        page = _read(device, lay.wal_base + vpn % wal_pages, 1)
        if not any(page):
            break
        wal.feed(page)
        vpn += 1
    report.wal_records = wal.count
    return report
