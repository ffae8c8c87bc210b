"""The Metadata Region: crash-safe state of the whole LBA space.

One logical record — WAL generation boundaries, slot roles and
published snapshot lengths, a monotone sequence number — stored as two
alternating physical copies (page A / page B). An update writes the
*other* page; recovery reads both and picks the valid copy with the
highest seqno, so a torn metadata write can never destroy the previous
consistent state.

A copy whose CRC holds but whose contents no state of the layout can
take (a slot role outside :class:`SlotRole`, a length beyond its slot,
a WAL head or generation start outside the live window) is rejected
like a torn one: :meth:`MetadataStore.read` falls back to the other
copy, and raises :class:`MetadataError` when no copy is left.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from collections.abc import Generator

from repro.core.lba import LbaLayout, SlotRole
from repro.kernel.accounting import CpuAccount
from repro.kernel.iouring import PassthruQueuePair
from repro.nvme import ReadCmd, WriteCmd

__all__ = ["Metadata", "MetadataCodec", "MetadataError", "MetadataStore"]

_MAGIC = b"SLIMMETA"
# magic, seqno, wal_gen_start, wal_head, wal_prev_start, wal_prev_bytes
_HDR = struct.Struct("<8sQQQQQ")
_SLOT = struct.Struct("<BQ")  # role, length
_CRC = struct.Struct("<I")
_NO_PREV = 0xFFFFFFFFFFFFFFFF
_ROLES = frozenset(int(r) for r in SlotRole)


class MetadataError(Exception):
    """Every metadata copy that passed its CRC describes a state the
    LBA layout cannot hold, so recovery has nothing to trust."""


@dataclass
class Metadata:
    """The logical metadata record."""

    seqno: int = 0
    wal_gen_start: int = 0
    wal_head: int = 0
    wal_prev_start: int | None = None  # retired-pending generation
    wal_prev_bytes: int = 0  # logical bytes of that generation
    slot_roles: list[int] = field(
        default_factory=lambda: [int(SlotRole.RESERVE), int(SlotRole.UNUSED),
                                 int(SlotRole.UNUSED)]
    )
    slot_lengths: list[int] = field(default_factory=lambda: [0, 0, 0])

    def __post_init__(self) -> None:
        if len(self.slot_roles) != 3 or len(self.slot_lengths) != 3:
            raise ValueError("exactly three slots")

    def problem(self, layout: LbaLayout, page_size: int) -> str | None:
        """Why no state of ``layout`` can be this record, or None."""
        roles = self.slot_roles
        for idx, role in enumerate(roles):
            if role not in _ROLES:
                return f"slot {idx} role {role} is not a SlotRole"
        if roles.count(SlotRole.RESERVE) != 1:
            return f"slot roles {roles} lack exactly one reserve"
        for role in (SlotRole.WAL_SNAPSHOT, SlotRole.ONDEMAND_SNAPSHOT):
            if roles.count(role) > 1:
                return f"duplicate {role.name} slot"
        cap_bytes = layout.slot_lbas * page_size
        for idx, length in enumerate(self.slot_lengths):
            if length > cap_bytes:
                return (f"slot {idx} claims {length} bytes "
                        f"> capacity {cap_bytes}")
        if self.wal_head < self.wal_gen_start:
            return (f"WAL head {self.wal_head} precedes generation "
                    f"start {self.wal_gen_start}")
        oldest = self.wal_gen_start
        if self.wal_prev_start is not None:
            if self.wal_prev_start > self.wal_gen_start:
                return (f"previous generation start {self.wal_prev_start}"
                        f" follows current start {self.wal_gen_start}")
            extent = (self.wal_gen_start - self.wal_prev_start) * page_size
            if self.wal_prev_bytes > extent:
                return (f"previous generation claims {self.wal_prev_bytes}"
                        f" bytes > its extent {extent}")
            oldest = self.wal_prev_start
        if self.wal_head - oldest > layout.wal_lbas:
            return "live WAL span exceeds the WAL region"
        return None


class MetadataCodec:
    """Fixed-size page encoding with CRC."""

    @staticmethod
    def encode(meta: Metadata, page_size: int) -> bytes:
        prev = _NO_PREV if meta.wal_prev_start is None else meta.wal_prev_start
        body = _HDR.pack(_MAGIC, meta.seqno, meta.wal_gen_start,
                         meta.wal_head, prev, meta.wal_prev_bytes)
        for role, length in zip(meta.slot_roles, meta.slot_lengths):
            body += _SLOT.pack(role, length)
        body += _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)
        if len(body) > page_size:
            raise ValueError("metadata exceeds one page")
        return body + bytes(page_size - len(body))

    @staticmethod
    def decode(page: bytes) -> Metadata | None:
        """Returns None for blank/corrupt pages (not an error: recovery
        probes both copies)."""
        need = _HDR.size + 3 * _SLOT.size + _CRC.size
        if len(page) < need:
            return None
        magic, seqno, gen_start, head, prev, prev_bytes = _HDR.unpack_from(page, 0)
        if magic != _MAGIC:
            return None
        body_end = _HDR.size + 3 * _SLOT.size
        (crc,) = _CRC.unpack_from(page, body_end)
        if crc != (zlib.crc32(page[:body_end]) & 0xFFFFFFFF):
            return None
        roles, lengths = [], []
        for i in range(3):
            role, length = _SLOT.unpack_from(page, _HDR.size + i * _SLOT.size)
            roles.append(role)
            lengths.append(length)
        return Metadata(seqno=seqno, wal_gen_start=gen_start, wal_head=head,
                        wal_prev_start=None if prev == _NO_PREV else prev,
                        wal_prev_bytes=prev_bytes,
                        slot_roles=roles, slot_lengths=lengths)


class MetadataStore:
    """Dual-copy metadata I/O over a passthru ring."""

    def __init__(self, ring: PassthruQueuePair, layout: LbaLayout,
                 metadata_pid: int = 0):
        if layout.metadata_lbas < 2:
            raise ValueError("dual-copy metadata needs 2 pages")
        self.ring = ring
        self.layout = layout
        self.pid = metadata_pid
        self._next_copy = 0  # which physical page the next write targets
        self._seqno = 0

    @property
    def page_size(self) -> int:
        return self.ring.device.lba_size

    def write(self, meta: Metadata, account: CpuAccount) -> Generator:
        """Durably persist ``meta`` (seqno assigned here, alternating page)."""
        self._seqno += 1
        meta.seqno = self._seqno
        page = MetadataCodec.encode(meta, self.page_size)
        lba = self.layout.metadata_base + self._next_copy
        self._next_copy ^= 1
        yield from self.ring.submit_and_wait(
            WriteCmd(lba=lba, nlb=1, data=[page], pid=self.pid), account
        )

    def read(self, account: CpuAccount) -> Generator:
        """Recovery: read both copies, return the freshest valid one
        (None on a factory-blank device).

        Raises :class:`MetadataError` when a copy passed its CRC but
        failed :meth:`Metadata.problem` and no copy is valid.
        """
        best: Metadata | None = None
        rejected = []
        for i in range(2):
            pages = yield from self.ring.submit_and_wait(
                ReadCmd(lba=self.layout.metadata_base + i, nlb=1), account
            )
            meta = MetadataCodec.decode(pages[0])
            if meta is None:
                continue
            problem = meta.problem(self.layout, self.page_size)
            if problem is not None:
                rejected.append(f"copy {i}: {problem}")
            elif best is None or meta.seqno > best.seqno:
                best = meta
                self._next_copy = i ^ 1
        if best is None and rejected:
            raise MetadataError("; ".join(rejected))
        if best is not None:
            self._seqno = best.seqno
        return best
