"""Test-side reference twins for ``repro.flash``.

Nothing here runs in production. ``repro.flash`` keeps one host path
(``write_burst`` / ``read_burst``: chunked placement, vectorized
mapping, closed-form NAND bursts) and one array-backed page map; these
are the obvious realizations those stand in for, kept so the tests can
diff the two:

* :func:`write` / :func:`read` / :func:`_place` / :func:`_map_one` —
  the page-at-a-time host path that used to live on
  ``FlashTranslationLayer``, moved here as functions over an FTL
  instance. The bodies are the old methods' (``self`` -> ``ftl``); the
  two booking lines go to the registry counters, the only ledger the
  FTL has, and a single-page program is spelt as the one-page burst
  the removed ``NandArray.program_page`` wrapper issued.
* :class:`DictL2P` — dict-of-ints page map with ``L2PMap``'s operation
  contract.
* :class:`ResourceNandArray` — ``NandArray`` as it was before its dies
  became FIFOs of self-dispatching entries: a ``Resource`` per die, the
  rest verbatim. ``tests/flash/test_nand_twin.py`` requires the same
  dispatch instants from both.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator, Sequence

from repro.flash.ftl import ROLE_HOST, SEG_FULL, FlashTranslationLayer
from repro.flash.geometry import FlashGeometry, NandTiming
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Event, Resource


def write(ftl: FlashTranslationLayer, lpn: int, stream_id: int) -> Generator:
    """Host page write (a simulation generator).

    Maps the page into the stream's open segment and pays the NAND
    program plus any allocation stall while the device is out of free
    segments.
    """
    ftl._check_lpn(lpn)
    if stream_id not in ftl._streams:
        raise ValueError(f"unknown stream {stream_id}")
    rt = ftl.rtrace
    t0 = ftl.env.now
    ppn = yield from _place(ftl, lpn, stream_id, ROLE_HOST)
    stall = ftl.env.now - t0
    ftl._obs_stall_time.inc(stall)
    if rt is not None and stall > 0:
        rt.add_span("ftl_alloc_stall", "ftl", t0, ftl.env.now,
                    stream=stream_id)
    t1 = ftl.env.now
    yield ftl.nand.program_pages([ppn])
    if rt is not None:
        rt.add_span("nand_program", "nand", t1, ftl.env.now,
                    stream=stream_id, pages=1)
    ftl._obs_host[stream_id].inc()


def read(ftl: FlashTranslationLayer, lpn: int) -> Generator:
    """Host page read; unmapped pages cost nothing (returned zeroed)."""
    ftl._check_lpn(lpn)
    ppn = ftl._l2p_mv[lpn]
    if ppn < 0:
        return False
    yield ftl.nand.read_pages([ppn])
    return True


def _place(ftl: FlashTranslationLayer, lpn: int, stream_id: int,
           role: int) -> Generator:
    """Assign a physical page; returns the ppn (mapping is atomic)."""
    stream = ftl._streams[stream_id]
    lock = stream.place_locks[role].request()
    yield lock
    try:
        seg = stream.open_segment[role]
        if (
            seg is None
            or stream.write_ptr[role] >= ftl.geometry.pages_per_segment
        ):
            if seg is not None:
                ftl._seg_state_mv[seg] = SEG_FULL
                stream.open_segment[role] = None
                ftl._maybe_kick_gc()
            seg = yield from ftl._alloc_segment(stream_id, role)
            stream.open_segment[role] = seg
            stream.write_ptr[role] = 0
        ppn = (
            ftl.geometry.first_page_of_segment(seg)
            + stream.write_ptr[role]
        )
        stream.write_ptr[role] += 1
    finally:
        stream.place_locks[role].release(lock)

    _map_one(ftl, lpn, ppn)
    return ppn


def _map_one(ftl: FlashTranslationLayer, lpn: int, ppn: int) -> None:
    old = ftl._map.map(lpn, ppn)
    if old >= 0:
        ftl._seg_valid_mv[ftl.geometry.segment_of_page(old)] -= 1
        ftl._on_invalidation()
    ftl._seg_valid_mv[ftl.geometry.segment_of_page(ppn)] += 1


class DictL2P:
    """Dict-backed reference with the same operation contract.

    Kept deliberately naive: the equivalence test replays a randomized
    trace through both implementations and compares after every
    operation, so any divergence in the array fast path shows up with
    the offending op attached.
    """

    __slots__ = ("num_lpns", "num_ppns", "_fwd", "_rev")

    def __init__(self, num_lpns: int, num_ppns: int):
        self.num_lpns = num_lpns
        self.num_ppns = num_ppns
        self._fwd: dict[int, int] = {}
        self._rev: dict[int, int] = {}

    def lookup(self, lpn: int) -> int:
        return self._fwd.get(lpn, -1)

    def rlookup(self, ppn: int) -> int:
        return self._rev.get(ppn, -1)

    def map(self, lpn: int, ppn: int) -> int:
        old = self._fwd.get(lpn, -1)
        if old >= 0:
            del self._rev[old]
        self._fwd[lpn] = ppn
        self._rev[ppn] = lpn
        return old

    def unmap(self, lpn: int) -> int:
        old = self._fwd.pop(lpn, -1)
        if old >= 0:
            del self._rev[old]
        return old

    def to_dict(self) -> dict[int, int]:
        return dict(self._fwd)


class ResourceNandArray:
    """``NandArray`` with a ``Resource`` per die: a ``Request``, an
    ``env.at`` event and two closures per page operation."""

    def __init__(
        self,
        env: Environment,
        geometry: FlashGeometry,
        timing: NandTiming | None = None,
        obs=None,
    ):
        self.env = env
        self.geometry = geometry
        self.timing = timing or NandTiming()
        self.obs = obs or MetricsRegistry(env)
        self._dies = [Resource(env, capacity=1) for _ in range(geometry.total_dies)]
        self._channels = [Resource(env, capacity=1) for _ in range(geometry.channels)]
        self._obs_programs = self.obs.counter("nand_page_programs_total")
        self._obs_reads = self.obs.counter("nand_page_reads_total")
        self._obs_segment_erases = self.obs.counter(
            "nand_segment_erases_total"
        )
        self._obs_block_erases = self.obs.counter("nand_block_erases_total")
        #: accumulated busy time per die, preallocated; summed on the
        #: (rare) reporting reads, bumped per operation on the hot path
        self._die_busy = memoryview(array("d", [0.0]) * geometry.total_dies)

    @property
    def die_busy_time(self) -> float:
        """Total die-busy time across the array (utilization numerator)."""
        return sum(self._die_busy)

    def die_busy(self, die: int) -> float:
        """Accumulated busy time of one die (hotspot attribution)."""
        return self._die_busy[die]

    # -- burst helpers ---------------------------------------------------------
    def _channel_runs(
        self, ppns: Sequence[int]
    ) -> list[tuple[int, list[tuple[int, int]]]]:
        """Split a page list into order-preserving same-channel runs.

        Returns ``[(channel, [(ppn, die), ...]), ...]``. Consecutive
        physical pages stripe across dies, so ``dies_per_channel``
        consecutive pages land on one channel — the natural transfer
        burst.
        """
        geo = self.geometry
        runs: list[tuple[int, list[tuple[int, int]]]] = []
        cur_ch = -1
        cur: list[tuple[int, int]] = []
        for ppn in ppns:
            die = geo.die_of_page(ppn)
            ch = geo.channel_of_die(die)
            if ch != cur_ch:
                if cur:
                    runs.append((cur_ch, cur))
                cur_ch, cur = ch, []
            cur.append((ppn, die))
        if cur:
            runs.append((cur_ch, cur))
        return runs

    @staticmethod
    def _on_grant(request, fn) -> None:
        """Run ``fn`` at the request's grant instant.

        A born-granted request (``callbacks is None``) is held already:
        run synchronously. Otherwise the grant fires through the heap.
        """
        if request.callbacks is None:
            fn(None)
        else:
            request.callbacks.append(fn)

    # -- programs --------------------------------------------------------------
    def program_pages(self, ppns: Sequence[int]) -> Event:
        """Program a burst of pages; returns an event firing when the
        last page completes.

        Per channel run: the channel is held for the whole transfer
        pipeline (one page arrives every ``channel_transfer``); each
        page's die is requested at channel-grant time (in page order)
        and programs as soon as both its data has arrived and its die
        is free.
        """
        done = self.env.event()
        if not ppns:
            done.succeed()
            return done
        state = [len(ppns)]
        for ch, pages in self._channel_runs(ppns):
            self._start_program_run(ch, pages, state, done)
        return done

    def _start_program_run(
        self,
        ch: int,
        pages: list[tuple[int, int]],
        state: list[int],
        done: Event,
    ) -> None:
        env = self.env
        t_tr = self.timing.channel_transfer
        t_prog = self.timing.page_program
        channel = self._channels[ch]
        creq = channel.request()

        def on_channel(_ev, _creq=creq) -> None:
            arrival = env.now
            arrivals: list[float] = []
            for _ in pages:
                arrival = arrival + t_tr
                arrivals.append(arrival)
            rel = env.at(arrivals[-1])
            rel.callbacks.append(lambda _e: channel.release(_creq))
            for (_ppn, die), a in zip(pages, arrivals):
                self._program_on_die(die, a, t_prog, state, done)

        self._on_grant(creq, on_channel)

    def _program_on_die(
        self, die: int, arrival: float, t_prog: float, state: list[int], done: Event
    ) -> None:
        env = self.env
        resource = self._dies[die]
        dreq = resource.request()

        def on_die(_ev) -> None:
            grant = env.now
            start = arrival if arrival > grant else grant
            fin = env.at(start + t_prog)

            def on_done(_e) -> None:
                resource.release(dreq)
                self._die_busy[die] += t_prog
                self._obs_programs.inc()
                state[0] -= 1
                if not state[0]:
                    done.succeed()

            fin.callbacks.append(on_done)

        self._on_grant(dreq, on_die)

    # -- reads -----------------------------------------------------------------
    def read_pages(self, ppns: Sequence[int]) -> Event:
        """Read a burst of pages; returns an event firing when the last
        transfer completes.

        Per channel run: all senses proceed in die-parallel; once the
        run's last sense lands, the channel is held once and the run's
        pages stream out back-to-back.
        """
        done = self.env.event()
        if not ppns:
            done.succeed()
            return done
        state = [len(ppns)]
        for ch, pages in self._channel_runs(ppns):
            self._start_read_run(ch, pages, state, done)
        return done

    def _start_read_run(
        self,
        ch: int,
        pages: list[tuple[int, int]],
        state: list[int],
        done: Event,
    ) -> None:
        env = self.env
        t_read = self.timing.page_read
        t_tr = self.timing.channel_transfer
        channel = self._channels[ch]
        senses = [len(pages)]

        def after_senses() -> None:
            creq = channel.request()

            def on_channel(_ev, _creq=creq) -> None:
                out = env.now
                for _ in pages:
                    out = out + t_tr
                rel = env.at(out)

                def on_done(_e) -> None:
                    channel.release(_creq)
                    self._obs_reads.inc(len(pages))
                    state[0] -= len(pages)
                    if not state[0]:
                        done.succeed()

                rel.callbacks.append(on_done)

            self._on_grant(creq, on_channel)

        for _ppn, die in pages:
            self._read_on_die(die, t_read, senses, after_senses)

    def _read_on_die(
        self, die: int, t_read: float, senses: list[int], after_senses
    ) -> None:
        env = self.env
        resource = self._dies[die]
        dreq = resource.request()

        def on_die(_ev) -> None:
            fin = env.at(env.now + t_read)

            def on_sense(_e) -> None:
                resource.release(dreq)
                self._die_busy[die] += t_read
                senses[0] -= 1
                if not senses[0]:
                    after_senses()

            fin.callbacks.append(on_sense)

        self._on_grant(dreq, on_die)

    # -- erases ----------------------------------------------------------------
    def erase_segment(self, seg: int) -> Generator:
        """Erase the segment's block on every die (in parallel).

        Each die pays one block-erase latency; the segment erase
        completes when the slowest die finishes.
        """
        yield self.erase_segment_ev(seg)

    def erase_segment_ev(self, seg: int) -> Event:
        env = self.env
        done = env.event()
        t_erase = self.timing.block_erase
        state = [self.geometry.total_dies]
        for die in range(self.geometry.total_dies):
            self._erase_on_die(die, t_erase, state, done)
        return done

    def _erase_on_die(
        self, die: int, t_erase: float, state: list[int], done: Event
    ) -> None:
        env = self.env
        resource = self._dies[die]
        dreq = resource.request()

        def on_die(_ev) -> None:
            fin = env.at(env.now + t_erase)

            def on_done(_e) -> None:
                resource.release(dreq)
                self._die_busy[die] += t_erase
                state[0] -= 1
                if not state[0]:
                    self._obs_segment_erases.inc()
                    self._obs_block_erases.inc(self.geometry.total_dies)
                    done.succeed()

            fin.callbacks.append(on_done)

        self._on_grant(dreq, on_die)

    # -- reporting -------------------------------------------------------------
    def utilization(self, t_end: float | None = None) -> float:
        """Mean die utilization in [0, 1] over the run so far."""
        t = self.env.now if t_end is None else t_end
        if t <= 0:
            return 0.0
        return self.die_busy_time / (t * self.geometry.total_dies)
