"""Simulated Linux kernel I/O paths.

Two ways from an application buffer to the NVMe device:

* the **traditional path** — ``write()`` syscalls through the VFS, a
  journaling file system (EXT4- or F2FS-flavoured contention model),
  the page cache with background writeback, and the block layer's FIFO
  dispatch queue. This is the baseline Redis uses and the source
  of all four bottlenecks in the paper's §3.1.
* the **io_uring / I/O passthru path** — SQ/CQ rings straight to the
  NVMe device. SQPOLL removes submission syscalls; passthru skips the
  page cache, file system, and scheduler entirely and can attach FDP
  placement IDs to writes.

CPU time is attributed per process and per kernel component (see
:class:`repro.kernel.accounting.CpuAccount`), which is how the
reproduction regenerates the paper's Table 2 and Figure 2a breakdowns.
"""

from repro.kernel.accounting import CpuAccount
from repro.kernel.blocklayer import BlockLayer
from repro.kernel.costs import KernelCosts
from repro.kernel.iouring import IoUringRing, PassthruQueuePair, RetryPolicy
from repro.kernel.pagecache import PageCache
from repro.kernel.fs import Ext4, F2fs, Filesystem, PosixFile

__all__ = [
    "CpuAccount",
    "KernelCosts",
    "PageCache",
    "BlockLayer",
    "IoUringRing",
    "PassthruQueuePair",
    "RetryPolicy",
    "Filesystem",
    "Ext4",
    "F2fs",
    "PosixFile",
]
