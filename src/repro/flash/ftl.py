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
(:mod:`repro.flash.l2p`): memoryview scalar access where one entry is
touched, zero-copy numpy views over the same bytes for the vectorized
paths. GC runs as a background simulation process competing for the
same NAND dies as host I/O.

Model state vs ledger: the maps, segment vectors and free list are the
model; what the device *did* — host pages, GC copies, erases, stall
seconds — is booked once, in counters of the registry the FTL is built
with, and read through :class:`WriteWindow`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Generator, Iterable, Sequence

import numpy as np

from repro.flash.geometry import FlashGeometry, NandTiming
from repro.flash.l2p import IntVec, L2PMap
from repro.flash.nand import NandArray
from repro.obs.registry import MetricsRegistry, ObsCounter
from repro.sim import Environment, Event, Resource

__all__ = ["FtlConfig", "FtlStats", "WriteWindow", "FlashTranslationLayer"]

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


class WriteWindow:
    """The FTL's write ledger since one instant.

    Opening a window copies the per-stream host/GC-copy counters and
    the erase counter; every read is *now minus then*, so a report
    cell and the registry export can never disagree. ``ftl.lifetime``
    is the window opened at zero.
    """

    __slots__ = ("_ftl", "_pages0", "_erased0")

    def __init__(self, ftl: FlashTranslationLayer):
        self._ftl = ftl
        self._pages0 = {sid: ftl._stream_pages(sid) for sid in ftl._streams}
        self._erased0 = int(ftl._obs_erased.value)

    def pages(self, streams: Iterable[int] | None = None) -> tuple[int, int]:
        """(host pages written, GC pages copied) in ``streams`` — every
        stream when None; ids the device does not have are skipped."""
        ftl = self._ftl
        known = ftl._streams.keys()
        host = copied = 0
        for sid in known if streams is None else known & set(streams):
            h, c = ftl._stream_pages(sid)
            h0, c0 = self._pages0.get(sid, (0, 0))
            host += h - h0
            copied += c - c0
        return host, copied

    def waf(self, streams: Iterable[int] | None = None) -> float:
        """Write amplification factor (1.00 = no internal copies).

        Attribution is by stream, not by submitter, as a real FDP
        device accounts Reclaim-Unit traffic: a tenant whose Placement
        IDs are shared sees the shared streams' traffic in full.
        """
        host, copied = self.pages(streams)
        if host == 0:
            return 1.0
        return (host + copied) / host

    @property
    def copied(self) -> int:
        return self.pages()[1]

    @property
    def erased(self) -> int:
        return int(self._ftl._obs_erased.value) - self._erased0


class FtlStats:
    """``ftl.stats``: the lifetime ledger under the attribute names
    slimbench and the tests read it by. A view — it stores nothing."""

    #: attribute -> the counter whose total (over streams) it reads
    COUNTERS = {
        "host_pages_written": "ftl_host_pages_written_total",
        "gc_pages_copied": "ftl_gc_pages_copied_total",
        "segments_erased": "ftl_segments_erased_total",
        "copyfree_erases": "ftl_copyfree_erases_total",
        "gc_runs": "ftl_gc_runs_total",
        "host_stall_time": "ftl_host_stall_seconds_total",
    }

    def __init__(self, ftl: FlashTranslationLayer):
        self._ftl = ftl

    def __getattr__(self, field: str) -> float:
        if field not in self.COUNTERS:
            raise AttributeError(field)
        return self._ftl.obs.total(self.COUNTERS[field])

    @property
    def waf(self) -> float:
        return self._ftl.lifetime.waf()


class _Stream:
    """One write stream (a Placement ID in FDP terms)."""

    __slots__ = ("stream_id", "open_segment", "write_ptr", "place_locks")

    def __init__(self, stream_id: int, env: Environment):
        self.stream_id = stream_id
        # one open segment per role: [host, gc]
        self.open_segment: list[int | None] = [None, None]
        self.write_ptr: list[int] = [0, 0]
        # placement must be atomic per (stream, role): allocation can
        # block, and concurrent page writes would otherwise race and
        # leak half-open segments
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
        # the write ledger: per-stream handles are made in
        # register_stream, so a stream that never copied reads 0
        self._obs_host: dict[int, ObsCounter] = {}
        self._obs_copied: dict[int, ObsCounter] = {}
        self._obs_erased = self.obs.counter("ftl_segments_erased_total")
        self._obs_copyfree = self.obs.counter("ftl_copyfree_erases_total")
        self._obs_gc_runs = self.obs.counter("ftl_gc_runs_total")
        self._obs_stall_time = self.obs.counter(
            "ftl_host_stall_seconds_total"
        )
        #: the write ledger since device creation
        self.lifetime = WriteWindow(self)
        self.stats = FtlStats(self)
        # The WAF gauge is callback-bound, so its exported value is the
        # live lifetime ratio at read time; the free-segment gauge's
        # low watermark records how close the device came to GC
        # starvation.
        self.obs.gauge("ftl_waf", fn=self.lifetime.waf)
        self._obs_free = self.obs.gauge("ftl_free_segments")
        self._obs_free.set(float(len(self._free)))
        self._obs_stalls = self.obs.counter("ftl_alloc_stalls_total")
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
        self._obs_host[stream_id] = self.obs.counter(
            "ftl_host_pages_written_total", stream=stream_id
        )
        self._obs_copied[stream_id] = self.obs.counter(
            "ftl_gc_pages_copied_total", stream=stream_id
        )

    @property
    def stream_ids(self) -> list[int]:
        return sorted(self._streams)

    def window(self) -> WriteWindow:
        """Open a :class:`WriteWindow` at the current instant."""
        return WriteWindow(self)

    def _stream_pages(self, stream_id: int) -> tuple[int, int]:
        return (int(self._obs_host[stream_id].value),
                int(self._obs_copied[stream_id].value))

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
    def write_burst(self, lpn_start: int, count: int, stream_id: int) -> Generator:
        """Host multi-page write: one placement pass, one NAND burst.

        Maps the extent into the stream's open segment and pays the
        NAND program plus any allocation stall while the device is out
        of free segments (GC pressure — the Figure 4 nosedives). Takes
        the (stream, role) place lock once per segment-sized chunk and
        programs each chunk as a single pipelined burst.
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
            self._obs_stall_time.inc((self.env.now - t0) * take)
            if rt is not None and self.env.now > t0:
                rt.add_span("ftl_alloc_stall", "ftl", t0, self.env.now,
                            stream=stream_id)
            t1 = self.env.now
            yield self.nand.program_pages(ppns)
            if rt is not None:
                rt.add_span("nand_program", "nand", t1, self.env.now,
                            stream=stream_id, pages=take)
            self._obs_host[stream_id].inc(take)
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
        """Map ``lpns`` onto the consecutive ppns starting at ``base``.

        ``lpns`` must be distinct (a host extent is a range; a GC
        window holds the lpns of distinct valid ppns): with a repeat
        the vectorized scatter would let the earlier ppn's reverse
        mapping survive.
        """
        arr = np.asarray(lpns, dtype=np.int64)
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
            self._obs_gc_runs.inc()

    def _reclaim(self, victim: int) -> Generator:
        """Copy a victim's valid pages, then erase it."""
        g = self.geometry
        base = g.first_page_of_segment(victim)
        stream_id = self._seg_stream_mv[victim]
        with self.obs.span("gc_reclaim", "gc",
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
                self._obs_copyfree.inc()
            # labels are recorded at span exit, so blame analysis
            # can tell copying reclaims from copy-free erases
            gc_span.labels["copied"] = copied
            yield from self.nand.erase_segment(victim)
        self._seg_state_mv[victim] = SEG_FREE
        self._seg_stream_mv[victim] = -1
        self._seg_valid_mv[victim] = 0
        self._seg_erase_mv[victim] += 1
        self._free.append(victim)
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
        self._obs_copied[stream_id].inc(len(live))

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
