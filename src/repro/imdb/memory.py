"""fork() and copy-on-write at page granularity.

When Redis snapshots, the parent forks; parent and child initially
share every heap page. A parent write to a shared page triggers a page
fault: the kernel locks the mapping, copies the page, and only then
lets the write proceed — this stall on the query path, plus the extra
resident memory of every copied page, is the paper's explanation for
the snapshot-period RPS drop that even SlimIO does not remove
("the drop in RPS during a snapshot is primarily caused by memory
copying and lock acquisition resulting from fork()'s CoW policy",
§5.2), and for peak memory ≈ 2× in Tables 1/3/4.

The model:

* ``fork()`` stalls the caller for the page-table copy
  (``pt_copy_per_page × heap_pages`` — the cost Async-Fork [29]
  attacks) and marks all current pages shared.
* ``touch(first, n)`` on the parent during a snapshot returns the
  pages that were still shared; the caller pays
  ``fault_overhead + page_copy_time`` per copied page and resident
  memory grows by a page each.
* ``reap()`` ends the snapshot: copied pages are reclaimed (the child
  exits and its references drop).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

import numpy as np

from repro.kernel.accounting import CpuAccount
from repro.sim import Environment

__all__ = ["ForkModel", "CowMemory"]

US = 1e-6


@dataclass(frozen=True)
class ForkModel:
    """Latency constants of the fork/CoW machinery."""

    #: page-table copy per mapped page, paid synchronously at fork()
    pt_copy_per_page: float = 0.06 * US
    #: page-fault entry/exit overhead per CoW fault (trap, mm locks,
    #: anon_vma bookkeeping — measured CoW faults run 2-5 µs)
    fault_overhead: float = 2.5 * US
    #: copying one 4 KiB page with cold caches
    page_copy_time: float = 1.2 * US

    def __post_init__(self) -> None:
        for f in ("pt_copy_per_page", "fault_overhead", "page_copy_time"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")


class CowMemory:
    """Tracks shared/copied pages across one fork generation."""

    def __init__(self, env: Environment, model: ForkModel | None = None,
                 page_size: int = 4096):
        self.env = env
        self.model = model or ForkModel()
        self.page_size = page_size
        self._shared = np.zeros(0, dtype=bool)
        self._snapshot_active = False
        self._armed_pages = 0
        self.copied_pages = 0
        self.cow_faults = 0
        #: resident memory beyond the base keyspace (copied pages)
        self.extra_bytes = 0.0

    @property
    def snapshot_active(self) -> bool:
        return self._snapshot_active

    # ------------------------------------------------------------------ fork
    def arm(self, heap_pages: int) -> None:
        """Mark all current pages shared (the fork instant, zero-time).

        Separate from :meth:`pt_copy_stall` so a caller can pin the
        fork point synchronously — no query may slip between the fork
        and the marking — and pay the page-table copy as a stall
        afterwards, like the real ``fork()`` does inside the kernel.
        """
        if self._snapshot_active:
            raise RuntimeError("a snapshot fork is already active")
        self._snapshot_active = True
        self._armed_pages = heap_pages
        if len(self._shared) < heap_pages:
            self._shared = np.zeros(max(heap_pages, 1), dtype=bool)
        self._shared[:heap_pages] = True
        self._shared[heap_pages:] = False

    def pt_copy_stall(self, account: CpuAccount) -> Generator:
        """The synchronous page-table copy cost of the armed fork."""
        _cpu_ev = account.charge(
            "fork", self._armed_pages * self.model.pt_copy_per_page
        )
        if _cpu_ev is not None:
            yield _cpu_ev

    def fork(self, heap_pages: int, account: CpuAccount) -> Generator:
        """Fork with ``heap_pages`` mapped; stalls for the PT copy."""
        self.arm(heap_pages)
        yield from self.pt_copy_stall(account)

    def touch(self, first_page: int, n_pages: int,
              account: CpuAccount) -> Generator:
        """Parent write to a page range; returns pages actually copied."""
        if not self._snapshot_active or n_pages == 0:
            return 0
        end = min(first_page + n_pages, len(self._shared))
        if first_page >= end:
            return 0  # pages allocated after the fork are never shared
        window = self._shared[first_page:end]
        to_copy = int(window.sum())
        if to_copy == 0:
            return 0
        window[:] = False
        self.cow_faults += 1
        self.copied_pages += to_copy
        _cpu_ev = account.charge(
            "cow",
            self.model.fault_overhead + to_copy * self.model.page_copy_time,
        )
        if _cpu_ev is not None:
            yield _cpu_ev
        self.extra_bytes += to_copy * self.page_size
        return to_copy

    def reap(self) -> None:
        """Child exited: drop the CoW generation and its extra memory."""
        if not self._snapshot_active:
            raise RuntimeError("no active snapshot fork")
        self._snapshot_active = False
        self._shared[:] = False
        self.extra_bytes = 0.0
