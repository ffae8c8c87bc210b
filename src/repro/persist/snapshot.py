"""The snapshot (RDB) writer — Redis's fork()ed child process.

The child iterates the fork-point dataset in chunks; for each chunk it
pays in-memory CPU (object iteration + serialization + compression) and
then pushes the encoded chunk down its I/O transport. With the baseline
sink that transport is ``write()`` through the shared kernel path; with
SlimIO it is the process-private Snapshot-Path ring, where writes are
submitted asynchronously and in-memory work overlaps device time (the
paper's "ideal" overlap of §3.1.1).

``finalize`` publishes the snapshot atomically (file rename / reserve-
slot promotion) only after every byte is durable; on failure ``abort``
leaves the previous snapshot untouched — the crash-safety contract the
LBA three-slot scheme exists to preserve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Generator, Sequence

from repro.kernel.accounting import CpuAccount
from repro.obs.registry import MetricsRegistry
from repro.persist.compress import Compressor, compress_time
from repro.persist.encoding import RdbWriter
from repro.persist.interfaces import SnapshotSink
from repro.sim import Environment

__all__ = ["SnapshotKind", "SnapshotStats", "SnapshotWriterProcess"]

GB = 1024**3


class SnapshotKind(enum.Enum):
    WAL_TRIGGERED = "wal-snapshot"
    ON_DEMAND = "on-demand-snapshot"


@dataclass
class SnapshotStats:
    """Everything measured about one snapshot generation."""

    kind: SnapshotKind
    started_at: float
    finished_at: float = 0.0
    entries: int = 0
    raw_bytes: int = 0
    written_bytes: int = 0
    ok: bool = False
    #: child-process CPU/wait breakdown (Figure 2a's attribution)
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def compression_ratio(self) -> float:
        return self.written_bytes / self.raw_bytes if self.raw_bytes else 1.0

    def time_in_memory(self) -> float:
        return sum(
            self.breakdown.get(k, 0.0) for k in ("serialize", "compress")
        )

    def time_in_kernel(self) -> float:
        return sum(
            self.breakdown.get(k, 0.0)
            for k in ("syscall", "fs", "copy", "pagecache", "uring",
                      "fs_lock_wait")
        )

    def time_on_ssd(self) -> float:
        return self.breakdown.get("ssd_wait", 0.0) + self.breakdown.get(
            "dirty_throttle", 0.0
        )


#: dataset traversal + dict-entry serialization bandwidth (bytes/s)
SERIALIZE_BANDWIDTH = 2.5 * GB
#: per-entry overhead of the child's iterate/serialize stage (index
#: walk, type dispatch)
PER_ENTRY_OVERHEAD = 0.5e-6


def serialize_time(nbytes: int, n_entries: int) -> float:
    """Modeled CPU seconds to iterate and serialize ``n_entries``
    entries of ``nbytes`` in all."""
    return nbytes / SERIALIZE_BANDWIDTH + n_entries * PER_ENTRY_OVERHEAD


class SnapshotWriterProcess:
    """One snapshot generation, run as a simulated child process."""

    def __init__(
        self,
        env: Environment,
        items: Sequence[tuple[bytes, bytes]],
        sink: SnapshotSink,
        kind: SnapshotKind = SnapshotKind.WAL_TRIGGERED,
        compressor: Compressor | None = None,
        chunk_entries: int = 128,
        account: CpuAccount | None = None,
        obs=None,
    ):
        if chunk_entries < 1:
            raise ValueError("chunk_entries must be >= 1")
        self.env = env
        self.items = items
        self.sink = sink
        self.kind = kind
        self.compressor = compressor or Compressor()
        self.chunk_entries = chunk_entries
        self.account = account or CpuAccount(env, "snapshot-child")
        self.obs = obs or MetricsRegistry(env)
        self.stats = SnapshotStats(kind=kind, started_at=env.now)

    def run(self) -> Generator:
        """Child process body; returns :class:`SnapshotStats`.

        On any I/O failure the partial snapshot is aborted and the
        stats record ``ok=False`` — the previous snapshot generation
        stays authoritative.
        """
        acct = self.account
        writer = RdbWriter(self.compressor)
        try:
            with self.obs.span("snapshot_write", "snapshot",
                               kind=self.kind.value):
                yield from self.sink.write(writer.header(), acct)
                for start in range(0, len(self.items), self.chunk_entries):
                    batch = self.items[start : start + self.chunk_entries]
                    raw_len = sum(len(k) + len(v) for k, v in batch)
                    # in-memory: iterate + serialize, then compress
                    _cpu_ev = acct.charge(
                        "serialize",
                        serialize_time(raw_len, len(batch)),
                    )
                    if _cpu_ev is not None:
                        yield _cpu_ev
                    encoded = writer.chunk(batch)
                    _cpu_ev = acct.charge("compress",
                                          compress_time(raw_len, 1))
                    if _cpu_ev is not None:
                        yield _cpu_ev
                    yield from self.sink.write(encoded, acct)
                    self.stats.entries += len(batch)
                    self.stats.raw_bytes += raw_len
                yield from self.sink.write(writer.footer(), acct)
                yield from self.sink.finalize(acct)
        except Exception:
            self.sink.abort()
            self.stats.finished_at = self.env.now
            self.stats.breakdown = acct.breakdown()
            self.stats.written_bytes = self.sink.bytes_written
            raise
        self.stats.ok = True
        self.stats.finished_at = self.env.now
        self.stats.breakdown = acct.breakdown()
        self.stats.written_bytes = self.sink.bytes_written
        return self.stats
