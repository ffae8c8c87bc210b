"""Page-mapped flash translation layer with streams, GC, and WAF.

One FTL class covers both devices in the paper:

* **Conventional SSD** — a single write stream: WAL entries, WAL
  snapshots, and On-Demand snapshots all interleave into the same open
  segments, so segments end up holding pages with mixed lifetimes and
  garbage collection must copy the still-valid (long-lived) pages
  before erasing. Those copies are the WAF > 1 of Table 3 and the
  latency spikes of Figure 4.
* **FDP SSD** — one stream per Placement ID. A stream owns its
  segments exclusively (a segment group per stream is exactly the
  Reclaim Unit of the FDP spec at our RU = segment granularity), so
  when the host deallocates a region its segments become fully invalid
  and GC erases them without copying a single page: WAF = 1.00.

The FTL tracks logical→physical mapping in preallocated buffers
(:mod:`repro.flash.l2p`): memoryview scalar access on the per-page hot
path, zero-copy numpy views over the same bytes for the vectorized
paths. GC runs as a background simulation process competing for the
same NAND dies as host I/O; write-amplification and stall statistics
are exposed per stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Generator, Sequence

import numpy as np

from repro.flash.geometry import FlashGeometry, NandTiming
from repro.flash.l2p import IntVec, L2PMap
from repro.flash.nand import NandArray
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Event

__all__ = ["FtlConfig", "FtlStats", "FlashTranslationLayer"]

# segment states
SEG_FREE = 0
SEG_OPEN = 1
SEG_FULL = 2

# write roles within a stream
ROLE_HOST = 0
ROLE_GC = 1


@dataclass(frozen=True)
class FtlConfig:
    """GC and overprovisioning policy knobs."""

    #: fraction of physical pages hidden from the logical space
    op_ratio: float = 0.10
    #: kick GC when free segments drop below this
    gc_trigger_segments: int = 4
    #: GC keeps reclaiming until free segments reach this
    gc_stop_segments: int = 6
    #: segments only GC may allocate from (host waits below this)
    gc_reserve_segments: int = 2
    #: concurrent page copies per GC batch (uses die parallelism)
    gc_copy_window: int = 16
    #: idle gap between background (copy-free) reclaims
    bg_reclaim_pause: float = 3e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.op_ratio < 0.5:
            raise ValueError("op_ratio must be in [0, 0.5)")
        if self.gc_reserve_segments < 1:
            raise ValueError("gc_reserve_segments must be >= 1")
        if self.gc_trigger_segments <= self.gc_reserve_segments:
            raise ValueError("gc_trigger must exceed gc_reserve")
        if self.gc_stop_segments < self.gc_trigger_segments:
            raise ValueError("gc_stop must be >= gc_trigger")
        if self.gc_copy_window < 1:
            raise ValueError("gc_copy_window must be >= 1")


@dataclass
class FtlStats:
    """Aggregate device-internal accounting."""

    host_pages_written: int = 0
    gc_pages_copied: int = 0
    segments_erased: int = 0
    copyfree_erases: int = 0
    host_stall_time: float = 0.0
    gc_runs: int = 0

    @property
    def total_pages_programmed(self) -> int:
        return self.host_pages_written + self.gc_pages_copied

    @property
    def waf(self) -> float:
        """Write amplification factor (1.00 = no internal copies)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.total_pages_programmed / self.host_pages_written


class _Stream:
    """One write stream (a Placement ID in FDP terms)."""

    __slots__ = ("stream_id", "open_segment", "write_ptr", "pages_written",
                 "gc_pages_copied", "place_locks")

    def __init__(self, stream_id: int, env: Environment):
        self.stream_id = stream_id
        # one open segment per role: [host, gc]
        self.open_segment: list[int | None] = [None, None]
        self.write_ptr: list[int] = [0, 0]
        self.pages_written = 0
        self.gc_pages_copied = 0
        # placement must be atomic per (stream, role): allocation can
        # block, and concurrent page writes would otherwise race and
        # leak half-open segments
        from repro.sim import Resource

        self.place_locks = [Resource(env, 1), Resource(env, 1)]


class FlashTranslationLayer:
    """Mapping, allocation, and garbage collection for one device."""

    def __init__(
        self,
        env: Environment,
        geometry: FlashGeometry,
        timing: NandTiming | None = None,
        config: FtlConfig | None = None,
        nand: NandArray | None = None,
        obs=None,
    ):
        self.env = env
        self.geometry = geometry
        self.config = config or FtlConfig()
        self.obs = obs or MetricsRegistry(env)
        self.nand = nand or NandArray(env, geometry, timing, obs=self.obs)
        g = geometry
        if self.config.gc_stop_segments >= g.segments:
            raise ValueError(
                f"geometry has {g.segments} segments; GC watermarks need fewer"
            )

        self.num_lpns = int(g.total_pages * (1.0 - self.config.op_ratio))
        # logical→physical and inverse maps (-1 = unmapped/invalid).
        # All per-page/per-segment state is preallocated (L2PMap /
        # IntVec): memoryviews (*_mv) for the scalar hot path, numpy
        # views over the same bytes for the vectorized paths.
        self._map = L2PMap(self.num_lpns, g.total_pages)
        self._l2p = self._map.fwd_np
        self._p2l = self._map.rev_np
        self._l2p_mv = self._map.fwd
        self._p2l_mv = self._map.rev
        self._seg_state_v = IntVec(g.segments, SEG_FREE, "b")
        self._seg_valid_v = IntVec(g.segments, 0, "i")
        self._seg_stream_v = IntVec(g.segments, -1, "i")
        self._seg_erase_v = IntVec(g.segments, 0, "q")
        self._seg_state = self._seg_state_v.np
        self._seg_valid = self._seg_valid_v.np
        self._seg_stream = self._seg_stream_v.np
        self._seg_erase_count = self._seg_erase_v.np
        self._seg_state_mv = self._seg_state_v.mv
        self._seg_valid_mv = self._seg_valid_v.mv
        self._seg_stream_mv = self._seg_stream_v.mv
        self._seg_erase_mv = self._seg_erase_v.mv
        self._free: deque[int] = deque(range(g.segments))

        self._streams: dict[int, _Stream] = {}
        self.stats = FtlStats()
        # The WAF gauge is callback-bound to FtlStats.waf, so its
        # exported value is the live ratio at read time; the
        # free-segment gauge's low watermark records how close the
        # device came to GC starvation.
        self.obs.gauge("ftl_waf", fn=lambda: self.stats.waf)
        self._obs_free = self.obs.gauge("ftl_free_segments")
        self._obs_free.set(float(len(self._free)))
        self._obs_erased = self.obs.counter("ftl_segments_erased_total")
        self._obs_stalls = self.obs.counter("ftl_alloc_stalls_total")
        self._obs_gc_copies: dict[int, object] = {}
        self._obs_deallocated = self.obs.counter(
            "ftl_deallocated_pages_total"
        )
        self._obs_forced_closes = self.obs.counter("ftl_forced_closes_total")
        self._obs_bg_reclaims = self.obs.counter(
            "ftl_background_reclaims_total"
        )
        #: request tracer (None = tracing off); host writes carrying a
        #: trace scope record alloc-stall and NAND-program leaf spans
        self.rtrace = None
        self._space_waiters: list[Event] = []
        self._gc_kick: Event | None = None
        self._bg_wake: Event | None = None
        self._invalidation: Event | None = None
        self._gc_proc = env.process(self._gc_loop(), name="ftl-gc")

    # ------------------------------------------------------------------ streams
    def register_stream(self, stream_id: int) -> None:
        """Declare a write stream (an FDP Placement ID)."""
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id} already registered")
        self._streams[stream_id] = _Stream(stream_id, self.env)

    @property
    def stream_ids(self) -> list[int]:
        return sorted(self._streams)

    def stream_stats(self, stream_id: int) -> tuple[int, int]:
        """(host pages written, GC pages copied) within one stream."""
        s = self._streams[stream_id]
        return s.pages_written, s.gc_pages_copied

    def waf_for_streams(self, stream_ids) -> float:
        """WAF over a subset of streams (per-tenant attribution).

        A tenant whose Placement IDs are shared with another tenant
        sees the shared streams' traffic in full — attribution is by
        stream, not by submitter, exactly as a real FDP device would
        account Reclaim-Unit traffic.
        """
        host = copied = 0
        for sid in set(stream_ids):
            if sid not in self._streams:
                continue
            h, c = self.stream_stats(sid)
            host += h
            copied += c
        if host == 0:
            return 1.0
        return (host + copied) / host

    # ------------------------------------------------------------------ queries
    @property
    def free_segments(self) -> int:
        return len(self._free)

    def mapped_ppn(self, lpn: int) -> int:
        """Current physical page of ``lpn`` (-1 if unmapped)."""
        self._check_lpn(lpn)
        return self._l2p_mv[lpn]

    def segment_valid_count(self, seg: int) -> int:
        return self._seg_valid_mv[seg]

    def segment_stream(self, seg: int) -> int:
        return self._seg_stream_mv[seg]

    def erase_count(self, seg: int) -> int:
        return self._seg_erase_mv[seg]

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_lpns:
            raise ValueError(f"lpn {lpn} out of range [0, {self.num_lpns})")

    # ------------------------------------------------------------------ host ops
    def write(self, lpn: int, stream_id: int) -> Generator:
        """Host page write (a simulation generator).

        Maps the page into the stream's open segment and pays the NAND
        program plus any allocation stall while the device is out of
        free segments (GC pressure — the Figure 4 nosedives).
        """
        self._check_lpn(lpn)
        if stream_id not in self._streams:
            raise ValueError(f"unknown stream {stream_id}")
        rt = self.rtrace
        t0 = self.env.now
        ppn = yield from self._place(lpn, stream_id, ROLE_HOST)
        stall = self.env.now - t0
        self.stats.host_stall_time += stall
        if rt is not None and stall > 0:
            rt.add_span("ftl_alloc_stall", "ftl", t0, self.env.now,
                        stream=stream_id)
        t1 = self.env.now
        yield from self.nand.program_page(ppn)
        if rt is not None:
            rt.add_span("nand_program", "nand", t1, self.env.now,
                        stream=stream_id, pages=1)
        self.stats.host_pages_written += 1
        self._streams[stream_id].pages_written += 1

    def read(self, lpn: int) -> Generator:
        """Host page read; unmapped pages cost nothing (returned zeroed)."""
        self._check_lpn(lpn)
        ppn = self._l2p_mv[lpn]
        if ppn < 0:
            return False
        yield from self.nand.read_page(ppn)
        return True

    def write_burst(self, lpn_start: int, count: int, stream_id: int) -> Generator:
        """Host multi-page write: one placement pass, one NAND burst.

        Equivalent to ``count`` individual :meth:`write` calls in
        accounting (stall time, WAF, per-stream counters) but takes the
        (stream, role) place lock once and programs the whole extent as
        a single pipelined burst.
        """
        if count <= 0:
            return
        self._check_lpn(lpn_start)
        self._check_lpn(lpn_start + count - 1)
        if stream_id not in self._streams:
            raise ValueError(f"unknown stream {stream_id}")
        # Chunk at segment granularity: data streams into a real FTL at
        # channel speed, so segment allocations for a long extent are
        # paced by the programs of the previous segment — mapping the
        # whole extent at one instant would let a single burst drain
        # the free list faster than background GC can interleave its
        # copy-free erases.
        chunk = self.geometry.pages_per_segment
        rt = self.rtrace
        i = 0
        while i < count:
            take = min(chunk, count - i)
            t0 = self.env.now
            ppns = yield from self._place_chunked(
                range(lpn_start + i, lpn_start + i + take),
                stream_id,
                ROLE_HOST,
            )
            # every page of the chunk experienced the same allocation wait
            self.stats.host_stall_time += (self.env.now - t0) * take
            if rt is not None and self.env.now > t0:
                rt.add_span("ftl_alloc_stall", "ftl", t0, self.env.now,
                            stream=stream_id)
            t1 = self.env.now
            yield self.nand.program_pages(ppns)
            if rt is not None:
                rt.add_span("nand_program", "nand", t1, self.env.now,
                            stream=stream_id, pages=take)
            self.stats.host_pages_written += take
            self._streams[stream_id].pages_written += take
            i += take

    def read_burst(self, lpn_start: int, count: int) -> Generator:
        """Host multi-page read; unmapped pages cost nothing.

        Returns the number of mapped pages actually sensed.
        """
        if count <= 0:
            return 0
        self._check_lpn(lpn_start)
        self._check_lpn(lpn_start + count - 1)
        ppns = self._l2p[lpn_start : lpn_start + count]
        mapped = ppns[ppns >= 0]
        if mapped.size:
            yield self.nand.read_pages(mapped.tolist())
        return int(mapped.size)

    def deallocate(self, lpn_start: int, count: int) -> None:
        """TRIM a logical range: invalidate without writing.

        This is how SlimIO retires an old WAL or snapshot slot; on the
        FDP device it leaves whole Reclaim Units invalid, enabling
        copy-free erases.
        """
        if count < 0:
            raise ValueError("negative deallocate count")
        self._check_lpn(lpn_start)
        if count:
            self._check_lpn(lpn_start + count - 1)
        lpns = np.arange(lpn_start, lpn_start + count)
        ppns = self._l2p[lpns]
        live = ppns[ppns >= 0]
        if live.size:
            segs = live // self.geometry.pages_per_segment
            self._p2l[live] = -1
            np.subtract.at(self._seg_valid, segs, 1)
            self._l2p[lpns] = -1
        self._obs_deallocated.inc(int(live.size))
        if live.size:
            self._on_invalidation()
        self._maybe_kick_gc()

    # ------------------------------------------------------------------ placement
    def _place(self, lpn: int, stream_id: int, role: int) -> Generator:
        """Assign a physical page; returns the ppn (mapping is atomic)."""
        stream = self._streams[stream_id]
        lock = stream.place_locks[role].request()
        yield lock
        try:
            seg = stream.open_segment[role]
            if (
                seg is None
                or stream.write_ptr[role] >= self.geometry.pages_per_segment
            ):
                if seg is not None:
                    self._seg_state_mv[seg] = SEG_FULL
                    stream.open_segment[role] = None
                    self._maybe_kick_gc()
                seg = yield from self._alloc_segment(stream_id, role)
                stream.open_segment[role] = seg
                stream.write_ptr[role] = 0
            ppn = (
                self.geometry.first_page_of_segment(seg)
                + stream.write_ptr[role]
            )
            stream.write_ptr[role] += 1
        finally:
            stream.place_locks[role].release(lock)

        old = self._map.map(lpn, ppn)
        if old >= 0:
            self._seg_valid_mv[self.geometry.segment_of_page(old)] -= 1
            self._on_invalidation()
        self._seg_valid_mv[self.geometry.segment_of_page(ppn)] += 1
        return ppn

    def _alloc_segment(self, stream_id: int, role: int) -> Generator:
        floor = 0 if role == ROLE_GC else self.config.gc_reserve_segments
        while True:
            self._maybe_kick_gc()
            if len(self._free) > floor:
                seg = self._free.popleft()
                self._seg_state_mv[seg] = SEG_OPEN
                self._seg_stream_mv[seg] = stream_id
                self._obs_free.set(float(len(self._free)))
                return seg
            # out of space for this caller: wait for GC to reclaim
            waiter = self.env.event()
            self._space_waiters.append(waiter)
            self._obs_stalls.inc()
            yield waiter

    def _place_chunked(
        self, lpns: Sequence[int], stream_id: int, role: int
    ) -> Generator:
        """Assign physical pages to a whole extent under one lock hold.

        Splits the extent at segment boundaries; each chunk's mapping
        update is vectorized. Returns the assigned ppns in lpn order.
        """
        stream = self._streams[stream_id]
        g = self.geometry
        lock = stream.place_locks[role].request()
        yield lock
        ppns: list[int] = []
        try:
            i, n = 0, len(lpns)
            while i < n:
                seg = stream.open_segment[role]
                if seg is None or stream.write_ptr[role] >= g.pages_per_segment:
                    if seg is not None:
                        self._seg_state_mv[seg] = SEG_FULL
                        stream.open_segment[role] = None
                        self._maybe_kick_gc()
                    seg = yield from self._alloc_segment(stream_id, role)
                    stream.open_segment[role] = seg
                    stream.write_ptr[role] = 0
                take = min(g.pages_per_segment - stream.write_ptr[role], n - i)
                base = g.first_page_of_segment(seg) + stream.write_ptr[role]
                stream.write_ptr[role] += take
                self._map_range(lpns[i : i + take], base, seg)
                ppns.extend(range(base, base + take))
                i += take
        finally:
            stream.place_locks[role].release(lock)
        return ppns

    def _map_range(self, lpns: Sequence[int], base: int, seg: int) -> None:
        """Map ``lpns`` onto the consecutive ppns starting at ``base``."""
        arr = np.asarray(lpns, dtype=np.int64)
        if np.unique(arr).size != arr.size:
            # Duplicate lpns within one burst: vectorized scatter would
            # let an early ppn's reverse mapping survive; fall back to
            # page-at-a-time semantics (the later write supersedes).
            for lpn, ppn in zip(lpns, range(base, base + len(lpns))):
                self._map_one(int(lpn), ppn)
            return
        old = self._l2p[arr]
        live = old[old >= 0]
        if live.size:
            self._p2l[live] = -1
            np.subtract.at(
                self._seg_valid, live // self.geometry.pages_per_segment, 1
            )
        new = np.arange(base, base + arr.size, dtype=np.int64)
        self._l2p[arr] = new
        self._p2l[new] = arr
        self._seg_valid_mv[seg] += arr.size
        if live.size:
            self._on_invalidation()

    def _map_one(self, lpn: int, ppn: int) -> None:
        old = self._map.map(lpn, ppn)
        if old >= 0:
            self._seg_valid_mv[self.geometry.segment_of_page(old)] -= 1
            self._on_invalidation()
        self._seg_valid_mv[self.geometry.segment_of_page(ppn)] += 1

    # ------------------------------------------------------------------ GC
    def _maybe_kick_gc(self) -> None:
        if (
            len(self._free) < self.config.gc_trigger_segments
            and self._gc_kick is not None
            and not self._gc_kick.triggered
        ):
            self._gc_kick.succeed()

    def _pick_victim(self) -> int | None:
        """Greedy: the FULL segment with the fewest valid pages.

        A 100%-valid segment is never a victim — copying it gains no
        space (a real FTL would burn endurance for nothing); the GC
        waits for invalidations instead.
        """
        full = np.flatnonzero(self._seg_state == SEG_FULL)
        if full.size == 0:
            return None
        best = int(full[np.argmin(self._seg_valid[full])])
        if self._seg_valid_mv[best] >= self.geometry.pages_per_segment:
            return None
        return best

    def _close_reclaimable_opens(self) -> None:
        """Close host open segments that carry invalid pages.

        Invalid space pinned in an open segment is unreachable to GC;
        closing the segment (the stream simply opens a new one on its
        next write) converts it into a victim candidate — the FTL
        analogue of padding out a partially written block.
        """
        for stream in self._streams.values():
            for role in (ROLE_HOST, ROLE_GC):
                seg = stream.open_segment[role]
                if seg is None:
                    continue
                written = stream.write_ptr[role]
                if written > 0 and self._seg_valid_mv[seg] < written:
                    self._seg_state_mv[seg] = SEG_FULL
                    stream.open_segment[role] = None
                    stream.write_ptr[role] = 0
                    self._obs_forced_closes.inc()

    def _on_invalidation(self) -> None:
        if self._invalidation is not None and not self._invalidation.triggered:
            self._invalidation.succeed()
        if self._bg_wake is not None and not self._bg_wake.triggered:
            self._bg_wake.succeed()

    def _pick_dead(self) -> int | None:
        """A fully-invalid FULL segment (copy-free reclaim), if any."""
        full = np.flatnonzero(
            (self._seg_state == SEG_FULL) & (self._seg_valid == 0)
        )
        return int(full[0]) if full.size else None

    def _gc_loop(self) -> Generator:
        while True:
            if len(self._free) >= self.config.gc_trigger_segments:
                # background reclaim: erase wholesale-dead segments as
                # they appear (TRIM of a WAL generation / snapshot slot)
                # instead of letting erases cluster into a storm when
                # free space finally runs out
                dead = self._pick_dead()
                if dead is not None:
                    yield from self._reclaim(dead)
                    self._obs_bg_reclaims.inc()
                    # pace background erases so they interleave with
                    # host I/O instead of forming a blackout train
                    yield self.env.timeout(self.config.bg_reclaim_pause)
                    continue
                # single-writer kick handoff: only this loop assigns
                # the wake events; writers only succeed the parked ones
                self._gc_kick = self.env.event()  # slimlint: ignore[SLIM010] single-writer handoff
                self._bg_wake = self.env.event()  # slimlint: ignore[SLIM010] single-writer handoff
                self._maybe_kick_gc()
                yield self.env.any_of([self._gc_kick, self._bg_wake])
                self._gc_kick = None  # slimlint: ignore[SLIM010] single-writer handoff
                self._bg_wake = None  # slimlint: ignore[SLIM010] single-writer handoff
            # reclaim until the stop watermark
            while len(self._free) < self.config.gc_stop_segments:
                victim = self._pick_victim()
                if victim is None:
                    self._close_reclaimable_opens()
                    victim = self._pick_victim()
                if victim is None:
                    # nothing gains space right now: sleep until some
                    # page is invalidated (overwrite or TRIM). If every
                    # writer is blocked on allocation too, the event
                    # heap drains and the run fails loudly — a genuinely
                    # wedged configuration, not silent GC churn.
                    self._invalidation = self.env.event()  # slimlint: ignore[SLIM010] single-writer handoff
                    yield self._invalidation
                    self._invalidation = None  # slimlint: ignore[SLIM010] single-writer handoff
                    continue
                yield from self._reclaim(victim)
            self.stats.gc_runs += 1

    def _reclaim(self, victim: int) -> Generator:
        """Copy a victim's valid pages, then erase it."""
        g = self.geometry
        base = g.first_page_of_segment(victim)
        stream_id = self._seg_stream_mv[victim]
        with self.obs.span("gc_reclaim", track="gc",
                           stream=stream_id) as gc_span:
            copied = 0
            window: list[tuple[int, int]] = []
            for off in range(g.pages_per_segment):
                ppn = base + off
                lpn = self._p2l_mv[ppn]
                if lpn < 0:
                    continue
                window.append((lpn, ppn))
                copied += 1
                if len(window) >= self.config.gc_copy_window:
                    yield from self._copy_window(window, stream_id)
                    window = []
            if window:
                yield from self._copy_window(window, stream_id)
            if copied == 0:
                self.stats.copyfree_erases += 1
            # labels are recorded at span exit, so blame analysis
            # can tell copying reclaims from copy-free erases
            gc_span.labels["copied"] = copied
            yield from self.nand.erase_segment(victim)
        self._seg_state_mv[victim] = SEG_FREE
        self._seg_stream_mv[victim] = -1
        self._seg_valid_mv[victim] = 0
        self._seg_erase_mv[victim] += 1
        self._free.append(victim)
        self.stats.segments_erased += 1
        self._obs_erased.inc()
        self._obs_free.set(float(len(self._free)))
        waiters, self._space_waiters = self._space_waiters, []
        for w in waiters:
            w.succeed()

    def _copy_window(
        self, pairs: list[tuple[int, int]], stream_id: int
    ) -> Generator:
        """Relocate one window of (lpn, src_ppn) victim candidates.

        Batched read of the still-valid sources, a post-read validity
        re-check (the host may rewrite an lpn while its copy is in
        flight), then one placement pass and one program burst for the
        survivors.
        """
        l2p = self._l2p_mv
        live = [(lpn, ppn) for lpn, ppn in pairs if l2p[lpn] == ppn]
        if not live:
            return
        yield self.nand.read_pages([ppn for _lpn, ppn in live])
        live = [(lpn, ppn) for lpn, ppn in live if l2p[lpn] == ppn]
        if not live:
            return
        dsts = yield from self._place_chunked(
            [lpn for lpn, _ppn in live], stream_id, ROLE_GC
        )
        yield self.nand.program_pages(dsts)
        n = len(live)
        self.stats.gc_pages_copied += n
        self._streams[stream_id].gc_pages_copied += n
        c = self._obs_gc_copies.get(stream_id)
        if c is None:
            c = self.obs.counter("ftl_gc_pages_copied_total",
                                 stream=stream_id)
            self._obs_gc_copies[stream_id] = c
        c.inc(n)

    # ------------------------------------------------------------------ invariants
    def check_invariants(self) -> None:
        """Internal consistency; used by property-based tests."""
        g = self.geometry
        mapped = np.flatnonzero(self._l2p >= 0)
        ppns = self._l2p[mapped]
        if len(np.unique(ppns)) != len(ppns):
            raise AssertionError("two lpns map to one ppn")
        back = self._p2l[ppns]
        if not np.array_equal(back, mapped):
            raise AssertionError("l2p/p2l disagree")
        valid_by_seg = np.bincount(
            ppns // g.pages_per_segment, minlength=g.segments
        )
        if not np.array_equal(valid_by_seg, self._seg_valid):
            raise AssertionError("segment valid counts drifted")
        n_free = int(np.sum(self._seg_state == SEG_FREE))
        if n_free != len(self._free):
            raise AssertionError("free list does not match segment states")
        if np.any(self._seg_valid[self._seg_state == SEG_FREE] != 0):
            raise AssertionError("free segment holds valid pages")
