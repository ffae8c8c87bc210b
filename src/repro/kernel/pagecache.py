"""Page cache with background writeback and dirty throttling.

The traditional path's buffering stage. ``write()`` copies user data
into per-file page buffers (real bytes — the cache is part of the data
plane) and marks them dirty; a background writeback process flushes
dirty runs through the block layer; writers that outrun the device are
throttled at the dirty limit, which is how device-side GC pressure
propagates back into baseline Redis's WAL fsyncs and snapshot writes.

A clean page is held by reference: a read miss caches the device's own
immutable page object, and writeback caches the ``bytes`` snapshot it
hands the device as the command payload. ``write()`` copies a shared
page into a private ``bytearray`` before changing it (copy-on-write),
so neither the device's stored page nor an in-flight payload is ever
mutated, and each page the cache and the device both hold is held once.

File→LBA translation is delegated to the owning file system through a
resolver callback registered per file.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.kernel.accounting import CpuAccount
from repro.kernel.blocklayer import BlockLayer
from repro.kernel.costs import BIO_SUBMIT_COST, PAGECACHE_PAGE_OP, copy_time
from repro.nvme import PageMap, ReadCmd, WriteCmd
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Event

__all__ = ["PageCache", "join_pages"]

# resolver(page_idx) -> lba of that file page (must exist once dirty)
Resolver = Callable[[int], int]


def join_pages(pages: list, head: int, end: int) -> bytes:
    """``pages`` joined into one ``bytes``, from byte ``head`` of the
    first page to byte ``end`` of the last.

    Each byte is copied once, by the join: whole pages go in as they
    are, and only a partial first or last page goes in as a
    ``memoryview`` slice (put in place of that page in ``pages``, a
    list the caller builds for the call). The result never aliases a
    mutable page.
    """
    if end < len(pages[-1]):
        pages[-1] = memoryview(pages[-1])[:end]
    if head:
        pages[0] = memoryview(pages[0])[head:]
    return b"".join(pages)


class PageCache:
    """Per-device page cache shared by all files of a file system."""

    def __init__(
        self,
        env: Environment,
        block_layer: BlockLayer,
        page_size: int = 4096,
        dirty_limit_bytes: int = 8 * 1024 * 1024,
        background_ratio: float = 0.5,
        writeback_interval: float = 0.030,
        writeback_batch_pages: int = 256,
        writeback_run_pages: int = 32,
        readahead_pages: int = 32,
        obs=None,
    ):
        if dirty_limit_bytes < page_size:
            raise ValueError("dirty_limit_bytes smaller than one page")
        if not 0.0 < background_ratio <= 1.0:
            raise ValueError("background_ratio must be in (0, 1]")
        self.env = env
        self.block = block_layer
        self.page_size = page_size
        self.dirty_limit = dirty_limit_bytes
        self.background_limit = int(dirty_limit_bytes * background_ratio)
        self.writeback_interval = writeback_interval
        self.writeback_batch_pages = writeback_batch_pages
        self.writeback_run_pages = max(1, writeback_run_pages)
        self.readahead_pages = readahead_pages
        #: cap per-write throttle pause (balance_dirty_pages quantum)
        self.max_throttle_pause = 2e-3

        #: clean pages are ``bytes`` shared with the device; a page
        #: ``write()`` changed is a private ``bytearray`` until
        #: writeback snapshots it; released with the system handle that
        #: built this cache (see :mod:`repro.nvme.pagemap`)
        self._pages: PageMap = PageMap()
        self._dirty: set[tuple[int, int]] = set()
        self._resolvers: dict[int, Resolver] = {}
        self._throttled: list[Event] = []
        self._wb_kick: Event | None = None
        self.obs = obs or MetricsRegistry(env)
        self._obs_dirty = self.obs.gauge("pagecache_dirty_bytes")
        self._obs_dirty.set(0.0)
        self._obs_throttles = self.obs.counter(
            "pagecache_throttle_events_total"
        )
        self._obs_throttle_wait = self.obs.histogram(
            "pagecache_throttle_wait_seconds"
        )
        self._obs_wb_pages = self.obs.counter(
            "pagecache_writeback_pages_total"
        )
        self._obs_buffered_writes = self.obs.counter(
            "pagecache_buffered_writes_total"
        )
        self._obs_hits = self.obs.counter("pagecache_cache_hits_total")
        self._obs_misses = self.obs.counter("pagecache_cache_misses_total")
        self._obs_fsyncs = self.obs.counter("pagecache_fsyncs_total")
        #: request tracer (None = tracing off); writeback runs record a
        #: background span linked to the requests that dirtied the pages
        self.rtrace = None
        self._trace_dirty: list[int] = []
        env.process(self._writeback_loop(), name="writeback")

    # ------------------------------------------------------------------ setup
    def register_file(self, file_id: int, resolver: Resolver) -> None:
        self._resolvers[file_id] = resolver

    def drop_file(self, file_id: int) -> None:
        """Invalidate all pages of a file (unlink / crash simulation)."""
        stale = [k for k in self._pages if k[0] == file_id]
        for k in stale:
            del self._pages[k]
            self._dirty.discard(k)
        self._resolvers.pop(file_id, None)

    def drop_all_clean(self) -> None:
        """Drop clean pages (echo 1 > drop_caches); keeps dirty data."""
        clean = [k for k in self._pages if k not in self._dirty]
        for k in clean:
            del self._pages[k]

    def crash(self) -> None:
        """Power loss: every cached page — dirty or clean — vanishes.

        Whatever reached the device via writeback/fsync survives;
        un-synced data is gone. Used by the durability tests.
        """
        self._pages.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------ state
    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * self.page_size

    @property
    def cached_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def is_cached(self, file_id: int, page_idx: int) -> bool:
        return (file_id, page_idx) in self._pages

    def _writable(self, file_id: int, page_idx: int) -> bytearray:
        """The page as a private ``bytearray`` (copy-on-write: a shared
        ``bytes`` page is copied, a missing one is zero-filled)."""
        key = (file_id, page_idx)
        buf = self._pages.get(key)
        if type(buf) is not bytearray:
            buf = bytearray(self.page_size) if buf is None else bytearray(buf)
            self._pages[key] = buf
        return buf

    # ------------------------------------------------------------------ write
    def write(
        self, file_id: int, offset: int, data: bytes, account: CpuAccount
    ) -> Generator:
        """Buffered write: copy in, dirty pages, maybe throttle."""
        self._pages.check()
        if file_id not in self._resolvers:
            raise KeyError(f"file {file_id} not registered")
        if offset < 0:
            raise ValueError("negative offset")
        rt = self.rtrace
        t_entry = self.env.now
        if rt is not None:
            ctx = rt.current()
            if ctx is not None and not ctx.background:
                # remember who dirtied pages so the next writeback can
                # link back to them (bounded; dedup the common repeat)
                tid = ctx.trace_id
                if (not self._trace_dirty or self._trace_dirty[-1] != tid) \
                        and len(self._trace_dirty) < 64:
                    self._trace_dirty.append(tid)
        _cpu_ev = account.charge("copy", copy_time(len(data)))
        if _cpu_ev is not None:
            yield _cpu_ev
        ps = self.page_size
        pos = 0
        n_ops = 0
        newly_dirty = 0
        while pos < len(data):
            abs_off = offset + pos
            page_idx, in_page = divmod(abs_off, ps)
            n = min(ps - in_page, len(data) - pos)
            buf = self._writable(file_id, page_idx)
            buf[in_page : in_page + n] = data[pos : pos + n]
            key = (file_id, page_idx)
            if key not in self._dirty:
                self._dirty.add(key)
                newly_dirty += 1
            pos += n
            n_ops += 1
        _cpu_ev = account.charge("pagecache", n_ops * PAGECACHE_PAGE_OP)
        if _cpu_ev is not None:
            yield _cpu_ev
        # writeback submission work done on the dirtier's behalf
        # (balance_dirty_pages / direct submission under pressure)
        _cpu_ev = account.charge(
            "pagecache", newly_dirty * BIO_SUBMIT_COST
        )
        if _cpu_ev is not None:
            yield _cpu_ev
        self._obs_buffered_writes.inc()
        self._obs_dirty.set(float(self.dirty_bytes))
        self._kick_writeback()

        if self.dirty_bytes > self.dirty_limit:
            # balance_dirty_pages: the writer pauses, but in bounded
            # quanta (the kernel caps each pause), so a writer holding
            # a CPU makes slow progress instead of stopping dead
            waiter = self.env.event()
            self._throttled.append(waiter)
            t0 = self.env.now
            yield self.env.any_of(
                [waiter, self.env.timeout(self.max_throttle_pause)]
            )
            if not waiter.triggered:
                try:
                    self._throttled.remove(waiter)
                except ValueError:
                    pass
            account.note("dirty_throttle", self.env.now - t0)
            self._obs_throttles.inc()
            self._obs_throttle_wait.observe(self.env.now - t0)
        if rt is not None and rt.current() is not None:
            rt.add_span("pagecache_write", "pagecache", t_entry,
                        self.env.now, nbytes=len(data))

    # ------------------------------------------------------------------ read
    def read(
        self,
        file_id: int,
        offset: int,
        length: int,
        account: CpuAccount,
        readahead: int | None = None,
    ) -> Generator:
        """Read through the cache; misses fetch with readahead."""
        self._pages.check()
        resolver = self._resolvers.get(file_id)
        if resolver is None:
            raise KeyError(f"file {file_id} not registered")
        if offset < 0 or length < 0:
            raise ValueError("bad read extent")
        ra = self.readahead_pages if readahead is None else readahead
        ps = self.page_size
        first = offset // ps
        last = (offset + length - 1) // ps if length else first
        # fault in missing pages, batching contiguous misses + readahead
        idx = first
        while idx <= last:
            if self.is_cached(file_id, idx):
                self._obs_hits.inc()
                idx += 1
                continue
            run_start = idx
            run_len = 0
            while (
                idx <= last + ra - 1
                and run_len < max(ra, 1)
                and not self.is_cached(file_id, idx)
            ):
                if idx > last:
                    # prefetch-only page: stop at the file's allocation edge
                    try:
                        resolver(idx)
                    except ValueError:
                        break
                run_len += 1
                idx += 1
            t0 = self.env.now
            for lba, sub_start, sub_len in self._lba_runs(
                resolver, run_start, run_len
            ):
                pages = yield from self.block.submit(
                    ReadCmd(lba=lba, nlb=sub_len), sync=True
                )
                for j, page in enumerate(pages):
                    self._pages[(file_id, sub_start + j)] = page
            account.note("ssd_wait", self.env.now - t0)
            self._obs_misses.inc(run_len)
        # copy to user
        _cpu_ev = account.charge("copy", copy_time(length))
        if _cpu_ev is not None:
            yield _cpu_ev
        _cpu_ev = account.charge(
            "pagecache", (last - first + 1) * PAGECACHE_PAGE_OP
        )
        if _cpu_ev is not None:
            yield _cpu_ev
        if not length:
            return b""
        pages = self._pages
        return join_pages(
            [pages[(file_id, idx)] for idx in range(first, last + 1)],
            offset - first * ps, offset + length - last * ps,
        )

    # ------------------------------------------------------------------ flush
    def _dirty_runs(self, file_id: int | None, limit: int):
        """Dirty (file, start, len) runs to flush.

        Runs are capped at ``writeback_run_pages`` and interleaved
        round-robin across files — like the kernel's per-inode
        writeback chunking. The interleaving matters beyond fairness:
        it is what mixes data of different lifetimes (WAL vs snapshot
        vs journal) into the same flash segments on a conventional SSD,
        producing the GC copies and WAF > 1 of the paper's §3.1.4.
        """
        keys = sorted(
            k for k in self._dirty if file_id is None or k[0] == file_id
        )
        per_file: dict[int, list[tuple[int, int, int]]] = {}
        i = 0
        cap = self.writeback_run_pages
        while i < len(keys):
            fid, start = keys[i]
            n = 1
            while i + n < len(keys) and keys[i + n] == (fid, start + n) and n < cap:
                n += 1
            per_file.setdefault(fid, []).append((fid, start, n))
            i += n
        runs: list[tuple[int, int, int]] = []
        taken = 0
        queues = [list(reversed(v)) for v in per_file.values()]
        while queues and taken < limit:
            for q in list(queues):
                if taken >= limit:
                    break
                fid, start, n = q.pop()
                n = min(n, limit - taken)
                runs.append((fid, start, n))
                taken += n
                if not q:
                    queues.remove(q)
        return runs

    @staticmethod
    def _lba_runs(resolver: Resolver, start: int, n: int):
        """Split a file-page run wherever its LBAs are discontiguous."""
        sub_start = start
        sub_lba = resolver(start)
        sub_len = 1
        for j in range(1, n):
            lba = resolver(start + j)
            if lba == sub_lba + sub_len:
                sub_len += 1
            else:
                yield sub_lba, sub_start, sub_len
                sub_start, sub_lba, sub_len = start + j, lba, 1
        yield sub_lba, sub_start, sub_len

    def _flush_run(self, fid: int, start: int, n: int, sync: bool) -> Generator:
        # A file can be unlinked while its writeback is in flight (WAL
        # generation rotation does exactly this): ``drop_file`` removes
        # the pages, the dirty marks, and the resolver, and the freed
        # extents are TRIMmed. Like the kernel skipping pages whose
        # mapping is gone, snapshot the page->LBA map up front and skip
        # anything that has vanished.
        self._pages.check()
        rt = self.rtrace
        bg = None
        wb_span = None
        if rt is not None:
            links = tuple(self._trace_dirty)
            self._trace_dirty.clear()
            bg = rt.begin_background("writeback")
            wb_span = rt.open_span("writeback", "pagecache", links=links,
                                   file=fid)
        resolver = self._resolvers.get(fid)
        pages: list[tuple[int, int]] = []  # (page_idx, lba)
        for j in range(n):
            key = (fid, start + j)
            self._dirty.discard(key)
            if resolver is None or key not in self._pages:
                continue
            try:
                lba = resolver(start + j)
            except ValueError:
                continue  # allocation shrank under writeback
            pages.append((start + j, lba))
        flushed = 0
        i = 0
        while i < len(pages):
            idx, lba = pages[i]
            # Re-check liveness at submit time: an unlink during an
            # earlier sub-run's I/O frees the remaining LBAs (possibly
            # to a new file) — a stale write there would corrupt it.
            if (fid, idx) not in self._pages:
                i += 1
                continue
            data = [self._snapshot(fid, idx)]
            k = 1
            while (
                i + k < len(pages)
                and pages[i + k][1] == lba + k
                and (fid, pages[i + k][0]) in self._pages
            ):
                data.append(self._snapshot(fid, pages[i + k][0]))
                k += 1
            yield from self.block.submit(
                WriteCmd(lba=lba, nlb=k, data=data), sync=sync
            )
            flushed += k
            i += k
        if rt is not None:
            rt.close_span(wb_span, pages=flushed)
            rt.finish_background(bg)
        self._obs_wb_pages.inc(flushed)
        self._obs_dirty.set(float(self.dirty_bytes))

    def _snapshot(self, fid: int, idx: int) -> bytes:
        """Writeback's immutable copy of a page: the command payload and,
        from now on, the clean cached page (a ``bytes`` page is its own
        snapshot). A writer that re-dirties the page mid-I/O copies it,
        so the payload is never touched."""
        key = (fid, idx)
        snap = bytes(self._pages[key])
        self._pages[key] = snap
        return snap

    def fsync(self, file_id: int, account: CpuAccount) -> Generator:
        """Synchronously flush a file's dirty pages (sync priority)."""
        self._pages.check()
        t0 = self.env.now
        while True:
            runs = self._dirty_runs(file_id, limit=1 << 30)
            if not runs:
                break
            procs = [
                self.env.process(self._flush_run(f, s, n, sync=True))
                for (f, s, n) in runs
            ]
            yield self.env.all_of(procs)
        account.note("ssd_wait", self.env.now - t0)
        self._release_throttled()
        self._obs_fsyncs.inc()

    def _release_throttled(self) -> None:
        if self.dirty_bytes <= self.background_limit and self._throttled:
            waiters, self._throttled = self._throttled, []
            for w in waiters:
                w.succeed()

    def _kick_writeback(self) -> None:
        if self._wb_kick is not None and not self._wb_kick.triggered:
            self._wb_kick.succeed()

    def _writeback_loop(self) -> Generator:
        while True:
            if not self._dirty:
                # fully event-driven when idle, so a drained simulation
                # terminates instead of ticking a writeback timer forever.
                # single-writer kick handoff: only this loop assigns
                # _wb_kick, rivals only succeed the parked event
                self._wb_kick = self.env.event()  # slimlint: ignore[SLIM010] single-writer handoff
                yield self._wb_kick
                self._wb_kick = None  # slimlint: ignore[SLIM010] single-writer handoff
            if self.dirty_bytes <= self.background_limit:
                # below background threshold: flush lazily on the timer
                yield self.env.timeout(self.writeback_interval)
            runs = self._dirty_runs(None, self.writeback_batch_pages)
            procs = [
                self.env.process(self._flush_run(f, s, n, sync=False))
                for (f, s, n) in runs
            ]
            if procs:
                yield self.env.all_of(procs)
            self._release_throttled()
