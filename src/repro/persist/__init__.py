"""Redis-style persistence: WAL (AOF), snapshots (RDB), recovery.

Functionally real: WAL records and snapshot chunks are binary-encoded,
CRC-protected, compressed bytes that round-trip through the simulated
device. The I/O transport is abstracted behind small sink/source
interfaces (:mod:`repro.persist.interfaces`) with two families of
implementations:

* file-based (:mod:`repro.persist.file_backends`) — the baseline's
  POSIX path through a journaling file system;
* LBA-based (:mod:`repro.core.paths`) — SlimIO's io_uring passthru
  paths over raw LBA regions.

Policies follow the paper: *Periodical-Log* (buffer, flush on idle or
deadline) and *Always-Log* (synchronous append per write query);
WAL-Snapshots trigger on WAL size, On-Demand-Snapshots on request, the
old WAL is retired only after a successful WAL-Snapshot.
"""

from repro.persist.compress import Compressor
from repro.persist.encoding import (
    AofCodec,
    AofReader,
    AofRecord,
    AofScanResult,
    CorruptionError,
    CorruptRecord,
    OP_DEL,
    OP_SET,
    RdbReader,
    RdbWriter,
)
from repro.persist.interfaces import AppendSink, SnapshotSink, SnapshotSource
from repro.persist.wal import LoggingPolicy, WalManager
from repro.persist.snapshot import SnapshotKind, SnapshotStats, SnapshotWriterProcess
from repro.persist.recovery import RecoveryResult, recover_store

__all__ = [
    "Compressor",
    "AofCodec",
    "AofReader",
    "AofRecord",
    "AofScanResult",
    "CorruptRecord",
    "CorruptionError",
    "OP_SET",
    "OP_DEL",
    "RdbReader",
    "RdbWriter",
    "AppendSink",
    "SnapshotSink",
    "SnapshotSource",
    "LoggingPolicy",
    "WalManager",
    "SnapshotKind",
    "SnapshotStats",
    "SnapshotWriterProcess",
    "RecoveryResult",
    "recover_store",
]
