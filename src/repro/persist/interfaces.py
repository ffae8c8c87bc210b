"""Transport interfaces between persistence logic and I/O paths.

The WAL manager and snapshot writer are transport-agnostic; the
baseline provides file-backed implementations (traditional kernel
path), SlimIO provides LBA-region implementations (io_uring passthru).
All methods that perform I/O are simulation generators taking the
calling process's :class:`~repro.kernel.accounting.CpuAccount`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.persist.encoding import AofReader

__all__ = ["AppendSink", "SnapshotSink", "SnapshotSource", "READ_WINDOW_PAGES"]

#: pages a reader is fed at a time when a log or slot is read back: the
#: read window recovery and fsck hold of a file, whatever its size
READ_WINDOW_PAGES = 64


class AppendSink(ABC):
    """Durable append log (the WAL's storage end)."""

    @abstractmethod
    def append(self, data: bytes, account: CpuAccount) -> Generator:
        """Stage ``data`` at the log tail (buffered; cheap)."""

    @abstractmethod
    def flush(self, account: CpuAccount) -> Generator:
        """Force everything appended so far to be durable on device."""

    @abstractmethod
    def begin_generation(self, account: CpuAccount) -> Generator:
        """Start a new log generation (at snapshot fork time). The
        previous generation stays readable until
        :meth:`retire_previous` — a failed snapshot must leave the full
        record chain replayable."""

    @abstractmethod
    def retire_previous(self, account: CpuAccount) -> Generator:
        """Drop the previous generation (the covering snapshot is now
        durable — paper §2.1/§4.2 ordering)."""

    def previous_covered(self) -> None:
        """The snapshot covering the previous generation is durable
        (zero-time notice, given before :meth:`retire_previous` queues
        for the sink). A sink whose appends can wait for that
        generation's space acts on it; the default ignores it."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Bytes appended to the current log generation."""

    @property
    def flush_is_noop(self) -> bool:
        """True when :meth:`flush` would provably do nothing at all —
        no device I/O, no simulated time, no state change. The WAL
        flusher's quiescence fast-forward may then replay idle flush
        ticks in closed form. Defaults to False: a journaling file
        sink's fsync commits the journal (real device writes) even
        with an empty buffer, so only sinks that can prove emptiness
        opt in."""
        return False

    @abstractmethod
    def read_all(self, account: CpuAccount, reader: AofReader) -> Generator:
        """Feed every live generation, oldest first, to a fresh
        ``reader`` (recovery replay), at most :data:`READ_WINDOW_PAGES`
        pages at a time."""


class SnapshotSink(ABC):
    """Write-once snapshot target (one snapshot generation)."""

    @abstractmethod
    def write(self, data: bytes, account: CpuAccount) -> Generator:
        """Append the next piece of the snapshot stream."""

    @abstractmethod
    def finalize(self, account: CpuAccount) -> Generator:
        """Make the snapshot durable and atomically publish it (rename
        over the old file / promote the reserve slot)."""

    @abstractmethod
    def abort(self) -> None:
        """Discard a partially written snapshot (zero-time bookkeeping)."""

    @property
    @abstractmethod
    def bytes_written(self) -> int: ...


class SnapshotSource(ABC):
    """Sequential reader over the latest published snapshot."""

    @abstractmethod
    def read(self, offset: int, length: int, account: CpuAccount) -> Generator:
        """Read ``length`` bytes at ``offset`` of the snapshot stream."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Total bytes of the published snapshot."""
