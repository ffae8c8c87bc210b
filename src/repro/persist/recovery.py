"""Recovery: snapshot load + WAL replay (paper §4.2, Table 5).

The procedure is Redis's: read the metadata (done by the caller's
engine, which hands us a :class:`SnapshotSource` and an
:class:`AppendSink`), stream the snapshot into memory, rebuild the
keyspace, then replay any WAL records logged after the snapshot.

The streaming read is where baseline and SlimIO diverge: the baseline
pays a syscall per ``read()`` through the page cache, SlimIO reads
through its passthru read-ahead buffer — same bytes, different cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.obs.registry import MetricsRegistry
from repro.persist.compress import decompress_time
from repro.persist.encoding import AofCodec, RdbReader
from repro.persist.interfaces import AppendSink, SnapshotSource
from repro.sim import Environment

__all__ = ["RecoveryResult", "recover_store"]

#: per-entry dict rebuild cost (hash + insert)
REBUILD_PER_ENTRY = 0.3e-6
#: bytes of snapshot one ``read()`` of the streaming load asks for
READ_CHUNK_BYTES = 1024 * 1024


@dataclass
class RecoveryResult:
    """Outcome of one recovery run.

    ``wal_truncated_at``/``wal_tail`` report how the WAL stream ended:
    ``"clean"`` means every byte decoded; ``"torn"`` means a crash
    fragment was truncated at the given offset (expected after power
    loss); ``"interior"`` means CRC-valid records resumed *after* the
    failure offset — ``wal_corrupt_records`` of them were dropped, which
    only genuine media corruption produces (strict mode raises instead).
    """

    data: dict[bytes, bytes] = field(default_factory=dict)
    snapshot_entries: int = 0
    wal_records_applied: int = 0
    snapshot_bytes: int = 0
    duration: float = 0.0
    wal_truncated_at: int | None = None
    wal_tail: str = "clean"
    wal_corrupt_records: int = 0

    @property
    def throughput(self) -> float:
        """Recovery I/O throughput in bytes/s (Table 5's metric)."""
        return self.snapshot_bytes / self.duration if self.duration > 0 else 0.0


def recover_store(
    env: Environment,
    source: SnapshotSource | None,
    wal_sink: AppendSink | None,
    account: CpuAccount,
    obs=None,
    strict_wal: bool = False,
) -> Generator:
    """Rebuild the keyspace; returns :class:`RecoveryResult`.

    ``source`` may be None (no snapshot yet: WAL-only recovery);
    ``wal_sink`` may be None (snapshot-only restore). The two phases
    are booked on ``obs`` (a :class:`repro.obs.MetricsRegistry`; a
    private one when None) as ``snapshot_load`` and ``recovery_replay``
    spans on the ``recovery`` layer, with per-chunk progress in the
    event log.

    ``strict_wal=True`` raises :class:`CorruptionError` on interior WAL
    corruption instead of replaying the valid prefix and reporting the
    damage through the result fields. The default is lenient because a
    torn tail after power loss is *expected* and out-of-order page
    persistence can legitimately strand record fragments past the tear.
    """
    obs = obs or MetricsRegistry(env)
    t0 = env.now
    result = RecoveryResult()

    if source is not None and source.size > 0:
        with obs.span("snapshot_load", "recovery"):
            blob = bytearray()
            offset = 0
            total = source.size
            while offset < total:
                n = min(READ_CHUNK_BYTES, total - offset)
                piece = yield from source.read(offset, n, account)
                blob.extend(piece)
                offset += n
                obs.event("recovery_progress", phase="snapshot",
                          read=offset, total=total)
            entries = RdbReader().read_all(blob)
            del blob, piece  # decoded: the replay need not hold it
            raw_bytes = sum(len(k) + len(v) for k, v in entries)
            _cpu_ev = account.charge(
                "decompress",
                decompress_time(raw_bytes, max(1, len(entries) // 64)),
            )
            if _cpu_ev is not None:
                yield _cpu_ev
            _cpu_ev = account.charge(
                "rebuild", len(entries) * REBUILD_PER_ENTRY
            )
            if _cpu_ev is not None:
                yield _cpu_ev
            for k, v in entries:
                result.data[k] = v
            result.snapshot_entries = len(entries)
            result.snapshot_bytes = total
        obs.counter("recovery_snapshot_bytes_total").inc(total)
        obs.counter("recovery_snapshot_entries_total").inc(len(entries))

    if wal_sink is not None:
        with obs.span("recovery_replay", "recovery"):
            raw = yield from wal_sink.read_all(account)
            scan = AofCodec.scan(raw, strict=strict_wal)
            _cpu_ev = account.charge(
                "rebuild", scan.count * REBUILD_PER_ENTRY
            )
            if _cpu_ev is not None:
                yield _cpu_ev
            AofCodec.replay(raw, result.data, 0, scan.consumed)
            result.wal_records_applied = scan.count
            result.wal_truncated_at = scan.truncated_at
            result.wal_tail = scan.tail_kind
            result.wal_corrupt_records = scan.trailing_records
        obs.counter("recovery_wal_records_total").inc(scan.count)
        if scan.truncated_at is not None:
            obs.counter("recovery_wal_truncations_total").inc()
        if scan.trailing_records:
            obs.counter("recovery_wal_corrupt_records_total").inc(
                scan.trailing_records
            )
        obs.event("recovery_progress", phase="replay",
                  records=scan.count, tail=scan.tail_kind)

    result.duration = env.now - t0
    return result
