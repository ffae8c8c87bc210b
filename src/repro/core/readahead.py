"""Sequential read-ahead over a passthru ring (recovery fast path).

The baseline gets prefetching for free from the page cache; a passthru
application must build its own. Recovery is a single sequential scan,
so the buffer keeps a window of page reads in flight ahead of the
cursor: while the CPU decompresses chunk *n*, the device is already
reading chunks *n+1 … n+w*. This overlap is where Table 5's ~20 %
recovery speedup comes from.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.kernel.iouring import PassthruQueuePair
from repro.kernel.pagecache import join_pages
from repro.nvme import ReadCmd
from repro.obs.registry import MetricsRegistry
from repro.sim import Event

__all__ = ["ReadAheadBuffer"]


class ReadAheadBuffer:
    """Prefetching reader over a contiguous LBA extent."""

    def __init__(
        self,
        ring: PassthruQueuePair,
        base_lba: int,
        npages: int,
        window_pages: int = 64,
        batch_pages: int = 16,
        obs=None,
    ):
        if window_pages < 1 or batch_pages < 1:
            raise ValueError("window/batch must be >= 1")
        self.ring = ring
        self.base_lba = base_lba
        self.npages = npages
        self.window_pages = window_pages
        self.batch_pages = min(batch_pages, window_pages)
        self._pages: dict[int, bytes] = {}  # page_idx -> data
        self._inflight: dict[int, Event] = {}  # first page idx -> completion
        self._next_prefetch = 0
        # Per-page prefetch outcome counts: hit = page already buffered
        # when requested; wait = in flight (the pipeline is keeping up
        # but not ahead); random_miss = outside the prefetch stream
        # entirely. The hit rate is hits / (hits + waits + random_misses).
        self.obs = obs or MetricsRegistry(ring.env)
        self._obs_hits = self.obs.counter("readahead_hits_total")
        self._obs_waits = self.obs.counter("readahead_waits_total")
        self._obs_misses = self.obs.counter("readahead_random_misses_total")

    @property
    def page_size(self) -> int:
        return self.ring.device.lba_size

    def _prefetch(self, account: CpuAccount) -> Generator:
        """Top the window up with async batch reads.

        The window bounds *in-flight* pages only — pages already
        buffered for the current sequential pass must not stall the
        pipeline (they are dropped once the cursor passes them).
        """
        while (
            self._next_prefetch < self.npages
            and self._inflight_pages() < self.window_pages
        ):
            start = self._next_prefetch
            n = min(self.batch_pages, self.npages - start)
            # advance the cursor BEFORE the submit yields: two readers
            # driving the same buffer interleave here, and reserving the
            # range first keeps a rival _prefetch from re-submitting it
            # (slimflow SLIM010 caught the read-yield-write form)
            self._next_prefetch = start + n
            ev = yield from self.ring.submit(
                ReadCmd(lba=self.base_lba + start, nlb=n), account
            )
            self._inflight[start] = ev

    def _inflight_pages(self) -> int:
        return sum(
            min(self.batch_pages, self.npages - s) for s in self._inflight
        )

    def _absorb(self, start: int, pages: list[bytes]) -> None:
        for j, page in enumerate(pages):
            self._pages[start + j] = page

    def read(self, offset: int, length: int, account: CpuAccount) -> Generator:
        """Read ``length`` bytes at byte ``offset`` of the extent."""
        if offset < 0 or length < 0:
            raise ValueError("bad extent")
        if offset + length > self.npages * self.page_size:
            raise ValueError("read beyond extent")
        ps = self.page_size
        first = offset // ps
        last = (offset + length - 1) // ps if length else first
        yield from self._prefetch(account)
        for idx in range(first, last + 1):
            if idx in self._pages:
                self._obs_hits.inc()
            elif self._find_inflight_for(idx) is not None:
                self._obs_waits.inc()
            else:
                self._obs_misses.inc()
            while idx not in self._pages:
                ev = self._find_inflight_for(idx)
                if ev is None:
                    # random access outside the prefetch stream
                    pages = yield from self.ring.submit_and_wait(
                        ReadCmd(lba=self.base_lba + idx, nlb=1), account
                    )
                    self._pages[idx] = pages[0]
                    break
                start, event = ev
                pages = yield from self.ring.wait(event, account)
                del self._inflight[start]
                self._absorb(start, pages)
            yield from self._prefetch(account)
        pages = self._pages
        out = join_pages(
            [pages[idx] for idx in range(first, last + 1)],
            offset - first * ps, offset + length - last * ps,
        ) if length else b""
        # drop pages behind the cursor (bounded memory)
        for idx in [i for i in pages if i < first]:
            del pages[idx]
        return out

    def _find_inflight_for(self, idx: int) -> tuple[int, Event] | None:
        for start, ev in self._inflight.items():
            n = min(self.batch_pages, self.npages - start)
            if start <= idx < start + n:
                return start, ev
        return None
