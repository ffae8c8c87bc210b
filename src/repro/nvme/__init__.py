"""NVMe device model over the flash FTL.

Exposes the command-level interface the kernel paths talk to:
reads/writes in LBA units (one LBA = one NAND page here), deallocate
(TRIM), and FDP write directives carrying a Placement ID. The device
holds the *real bytes* written to it, so snapshots and WALs written
through any simulated path can be read back and verified.
"""

from repro.nvme.commands import (
    DeallocateCmd,
    NvmeCommand,
    ReadCmd,
    WriteCmd,
    split_pages,
)
from repro.nvme.device import DeviceStats, NvmeDevice
from repro.nvme.errors import NvmeError, NvmeTimeout
from repro.nvme.pagemap import PageMap, ReleasedError, release_when_freed
from repro.nvme.partition import LbaPartition, partition_evenly

__all__ = [
    "NvmeCommand",
    "ReadCmd",
    "WriteCmd",
    "DeallocateCmd",
    "split_pages",
    "NvmeDevice",
    "DeviceStats",
    "NvmeError",
    "NvmeTimeout",
    "PageMap",
    "ReleasedError",
    "release_when_freed",
    "LbaPartition",
    "partition_evenly",
]
