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
from repro.persist.compress import Compressor
from repro.persist.encoding import AofCodec, CorruptRecord, RdbReader

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
    """Zero-time raw read (offline inspection)."""
    # the verifier is the offline fsck: raw access is its whole job
    return device.peek(lba, n)  # slimlint: ignore[SLIM001]


def verify_lba_space(
    device: NvmeDevice,
    layout: LbaLayout | None = None,
    compressor: Compressor | None = None,
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
    comp = compressor or Compressor()

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
        blob = bytearray()
        for vpn in range(lay.wal_lbas):
            page = _read(device, lay.wal_base + vpn, 1)
            if not any(page):
                break
            blob.extend(page)
        report.wal_records = AofCodec.walk(blob)[1]
        return report
    report.metadata = best

    # published snapshots decode completely (roles and lengths are
    # legal: Metadata.problem passed)
    roles = [SlotRole(r) for r in best.slot_roles]
    for idx, role in enumerate(roles):
        if role not in (SlotRole.WAL_SNAPSHOT, SlotRole.ONDEMAND_SNAPSHOT):
            continue
        length = best.slot_lengths[idx]
        npages = -(-length // device.lba_size) if length else 0
        blob = memoryview(_read(device, lay.slot_base(idx),
                                max(npages, 1)))[:length]
        try:
            entries = RdbReader(comp).read_all(blob)
        except CorruptRecord as exc:
            report.problem(f"slot {idx} ({role.name}) snapshot corrupt: {exc}")
            continue
        report.snapshot_entries[role.name] = len(entries)

    # WAL chain decodes from the oldest live generation
    wal_pages = lay.wal_lbas
    oldest = (
        best.wal_prev_start if best.wal_prev_start is not None
        else best.wal_gen_start
    )

    blob = bytearray()

    def read_vpns(start: int, end: int) -> None:
        """Append WAL pages ``[start, end)`` to ``blob``: a one-page
        peek hands back the stored page, so each byte is copied once."""
        for vpn in range(start, end):
            blob.extend(_read(device, lay.wal_base + vpn % wal_pages, 1))

    if best.wal_prev_start is not None:
        read_vpns(best.wal_prev_start, best.wal_gen_start)
        del blob[best.wal_prev_bytes:]
        decoded_len, _ = AofCodec.walk(blob)
        if decoded_len != best.wal_prev_bytes:
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
        blob.extend(page)
        vpn += 1
    report.wal_records = AofCodec.walk(blob)[1]
    return report
