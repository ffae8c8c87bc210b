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
  (``PT_COPY_PER_PAGE × heap_pages`` — the cost Async-Fork [29]
  attacks) and marks all current pages shared.
* ``touch(first, n)`` on the parent during a snapshot returns the
  pages that were still shared; the caller pays
  ``FAULT_OVERHEAD + PAGE_COPY_TIME`` per copied page and resident
  memory grows by a page each.
* ``reap()`` ends the snapshot: copied pages are reclaimed (the child
  exits and its references drop).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.sim import Environment

__all__ = ["CowMemory"]

US = 1e-6


#: page-table copy per mapped page, paid synchronously at fork()
PT_COPY_PER_PAGE = 0.06 * US
#: page-fault entry/exit overhead per CoW fault (trap, mm locks,
#: anon_vma bookkeeping — measured CoW faults run 2-5 µs)
FAULT_OVERHEAD = 2.5 * US
#: copying one 4 KiB page with cold caches
PAGE_COPY_TIME = 1.2 * US


class CowMemory:
    """Tracks shared/copied pages across one fork generation."""

    def __init__(self, env: Environment, page_size: int = 4096):
        self.env = env
        self.page_size = page_size
        #: one byte per heap page, 1 while the page is shared
        self._shared = bytearray()
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
            self._shared = bytearray(max(heap_pages, 1))
        self._shared[:heap_pages] = b"\x01" * heap_pages
        self._shared[heap_pages:] = bytes(len(self._shared) - heap_pages)

    def pt_copy_stall(self, account: CpuAccount) -> Generator:
        """The synchronous page-table copy cost of the armed fork."""
        _cpu_ev = account.charge(
            "fork", self._armed_pages * PT_COPY_PER_PAGE
        )
        if _cpu_ev is not None:
            yield _cpu_ev

    def touch(self, first_page: int, n_pages: int,
              account: CpuAccount) -> Generator:
        """Parent write to a page range; returns pages actually copied."""
        if not self._snapshot_active or n_pages == 0:
            return 0
        end = min(first_page + n_pages, len(self._shared))
        if first_page >= end:
            return 0  # pages allocated after the fork are never shared
        to_copy = self._shared.count(1, first_page, end)
        if to_copy == 0:
            return 0
        self._shared[first_page:end] = bytes(end - first_page)
        self.cow_faults += 1
        self.copied_pages += to_copy
        _cpu_ev = account.charge(
            "cow",
            FAULT_OVERHEAD + to_copy * PAGE_COPY_TIME,
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
        self._shared = bytearray(len(self._shared))
        self.extra_bytes = 0.0
