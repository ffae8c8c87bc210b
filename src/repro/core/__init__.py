"""SlimIO — the paper's contribution.

SlimIO replaces Redis's file-backed persistence transports with
io_uring **I/O passthru** paths over a raw LBA space, and tags writes
with FDP **placement IDs** so WAL and snapshot lifetimes never share a
Reclaim Unit:

* :mod:`repro.core.lba` — the LBA space: Metadata Region, circular WAL
  Region, and a Snapshot Region of three slots (WAL-Snapshot slot,
  On-Demand slot, Reserve slot) with the promote-on-success state
  machine of §4.2.
* :mod:`repro.core.metadata` — the crash-safe metadata page (dual-copy,
  seqno + CRC) recording the WAL position and slot roles.
* :mod:`repro.core.placement` — lifetime → Placement ID policy (§4.3).
* :mod:`repro.core.paths` — the WAL-Path and Snapshot-Path: each
  process gets its own SQ/CQ pair in SQPOLL mode (§4.1), implementing
  the same :class:`~repro.persist.interfaces.AppendSink` /
  :class:`SnapshotSink` contracts as the baseline file transports.
* :mod:`repro.core.readahead` — the sequential read-ahead buffer that
  accelerates recovery (§5.3).
* :mod:`repro.core.engine` — one-call builders for the baseline system
  and the SlimIO system, plus recovery entry points; this is the
  library's main public API.
"""

from repro.core.engine import (
    BaselineSystem,
    SlimIOSystem,
    SystemConfig,
    build_baseline,
    build_slimio,
)
from repro.core.lba import LbaLayout, LbaSpaceManager, SlotRole
from repro.core.metadata import (
    Metadata,
    MetadataCodec,
    MetadataError,
    MetadataStore,
)
from repro.core.paths import SlimIOSnapshotSource, SnapshotPath, WalPath
from repro.core.placement import PlacementPolicy
from repro.core.readahead import ReadAheadBuffer
from repro.core.replicate import ReplicationLink, SyncReport, full_sync
from repro.core.verify import VerifyReport, verify_lba_space

__all__ = [
    "BaselineSystem",
    "SlimIOSystem",
    "SystemConfig",
    "build_baseline",
    "build_slimio",
    "LbaLayout",
    "LbaSpaceManager",
    "SlotRole",
    "Metadata",
    "MetadataCodec",
    "MetadataError",
    "MetadataStore",
    "WalPath",
    "SnapshotPath",
    "SlimIOSnapshotSource",
    "PlacementPolicy",
    "ReadAheadBuffer",
    "VerifyReport",
    "verify_lba_space",
    "ReplicationLink",
    "SyncReport",
    "full_sync",
]
