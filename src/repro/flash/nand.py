"""NAND array timing: die and channel occupancy.

Each die services one operation at a time (read / program / erase) and
each channel bus moves one page at a time. Host I/O and GC traffic
contend for the same dies — this contention is the physical mechanism
behind the paper's "Snapshot & WAL (under GC)" degradation (§3.1.4)
and the RPS nosedives of Figure 4.

Bursts
------

Multi-page operations (:meth:`NandArray.program_pages`,
:meth:`NandArray.read_pages`) are the hot path: an N-page burst is
split into runs of pages sharing one channel and each run's transfer
pipeline is computed in closed form (arrival instants by repeated
addition from the channel-grant time) instead of one heap event per
page-step. Die occupancy stays per-page — that is the contention that
matters — but grants, releases, and completions are scheduled at
*absolute* instants (:meth:`Environment.at`), so the realized schedule
is a pure function of grant times.

Die FIFOs
---------

Each die is a FIFO of :class:`_DieOp` entries, one per program, sense
or erase; the head holds the die. An entry is its own heap entry at
most twice: the zero-delay *grant*, pushed when the holder ahead of it
completes (only if it had to queue), and the *completion*, pushed at
grant for ``max(arrival, grant) + t``. Keys and push order are those a
``Resource`` per die gave (release → ``succeed`` of the next waiter,
then the operation's own bookkeeping), so the dispatch sequence is the
same event for event. The grants are not merged or computed ahead:
at round timings completions of different channels' runs tie at one
float, and which of two equal-instant entries dispatches first is
decided by when each was pushed.

The page-at-a-time model this arithmetic stands in for (a process per
page, a chained timeout per transfer) lives in
``tests/flash/test_nand_oracle.py``, which requires bit-identical
completion instants and per-die busy time on seeded random bursts; the
``Resource``-per-die realization lives in ``tests/flash/twins.py`` and
``tests/flash/test_nand_twin.py`` requires the same dispatch instants.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Callable, Generator, Sequence

from repro.flash.geometry import FlashGeometry, NandTiming
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Event, Resource

__all__ = ["NandArray"]

#: arrival of an operation that moves no data in first (sense, erase):
#: ``max(_READY, grant)`` is the grant
_READY = float("-inf")


class _DieOp(Event):
    """One program, sense or erase in a die's FIFO.

    ``finish`` is the countdown shared by every operation of one burst,
    run or segment erase, called once this operation has released its
    die.
    """

    __slots__ = ("die", "arrival", "t", "finish")

    def __init__(self, env: Environment, die: int, arrival: float, t: float,
                 finish: Callable[[], None]):
        Event.__init__(self, env)
        self.die = die
        self.arrival = arrival
        self.t = t
        self.finish = finish


class NandArray:
    """Timing façade over the dies and channels of one device."""

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
        self._fifos: list[deque[_DieOp]] = [
            deque() for _ in range(geometry.total_dies)
        ]
        # what a _DieOp runs when dispatched: one tuple each, shared
        self._on_grant_cbs = (self._granted,)
        self._on_done_cbs = (self._completed,)
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

    # -- die occupancy ---------------------------------------------------------
    def _submit(self, op: _DieOp) -> None:
        """Queue ``op`` on its die; a free die grants it at once."""
        fifo = self._fifos[op.die]
        fifo.append(op)
        if len(fifo) == 1:
            self._granted(op)

    def _granted(self, op: _DieOp) -> None:
        """``op`` holds its die: push its completion."""
        now = self.env.now
        arrival = op.arrival
        op.callbacks = self._on_done_cbs
        self.env.schedule_at(op, (arrival if arrival > now else now) + op.t)

    def _completed(self, op: _DieOp) -> None:
        """``op`` is done: hand the die on, then book ``op``.

        The next waiter's grant is pushed before ``finish`` can push
        the burst's own events — the order ``Resource.release`` gave,
        which same-instant ties make observable.
        """
        die = op.die
        fifo = self._fifos[die]
        fifo.popleft()
        if fifo:
            nxt = fifo[0]
            nxt.callbacks = self._on_grant_cbs
            self.env.schedule_at(nxt, self.env.now)
        self._die_busy[die] += op.t
        op.finish()

    # -- burst helpers ---------------------------------------------------------
    def _channel_runs(self, ppns: Sequence[int]) -> list[tuple[int, list[int]]]:
        """Split a page list into order-preserving same-channel runs.

        Returns ``[(channel, [die, ...]), ...]``. Consecutive physical
        pages stripe across dies, so ``dies_per_channel`` consecutive
        pages land on one channel — the natural transfer burst.
        """
        geo = self.geometry
        runs: list[tuple[int, list[int]]] = []
        cur_ch = -1
        cur: list[int] = []
        for ppn in ppns:
            die = geo.die_of_page(ppn)
            ch = geo.channel_of_die(die)
            if ch != cur_ch:
                if cur:
                    runs.append((cur_ch, cur))
                cur_ch, cur = ch, []
            cur.append(die)
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
        left = len(ppns)
        programs = self._obs_programs

        def finish() -> None:
            nonlocal left
            programs.inc()
            left -= 1
            if not left:
                done.succeed()

        for ch, dies in self._channel_runs(ppns):
            self._start_program_run(ch, dies, finish)
        return done

    def _start_program_run(
        self, ch: int, dies: list[int], finish: Callable[[], None]
    ) -> None:
        env = self.env
        t_tr = self.timing.channel_transfer
        t_prog = self.timing.page_program
        channel = self._channels[ch]
        creq = channel.request()

        def on_channel(_ev) -> None:
            arrival = env.now
            arrivals: list[float] = []
            for _ in dies:
                arrival = arrival + t_tr
                arrivals.append(arrival)
            rel = env.at(arrivals[-1])
            rel.callbacks.append(lambda _e: channel.release(creq))
            submit = self._submit
            for die, a in zip(dies, arrivals):
                submit(_DieOp(env, die, a, t_prog, finish))

        self._on_grant(creq, on_channel)

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
        left = len(ppns)
        reads = self._obs_reads

        def streamed(n: int) -> None:
            nonlocal left
            reads.inc(n)
            left -= n
            if not left:
                done.succeed()

        for ch, dies in self._channel_runs(ppns):
            self._start_read_run(ch, dies, streamed)
        return done

    def _start_read_run(
        self, ch: int, dies: list[int], streamed: Callable[[int], None]
    ) -> None:
        env = self.env
        t_tr = self.timing.channel_transfer
        channel = self._channels[ch]
        unsensed = len(dies)

        def sensed() -> None:
            nonlocal unsensed
            unsensed -= 1
            if unsensed:
                return
            creq = channel.request()

            def on_channel(_ev) -> None:
                out = env.now
                for _ in dies:
                    out = out + t_tr

                def on_done(_e) -> None:
                    channel.release(creq)
                    streamed(len(dies))

                env.at(out).callbacks.append(on_done)

            self._on_grant(creq, on_channel)

        t_read = self.timing.page_read
        submit = self._submit
        for die in dies:
            submit(_DieOp(env, die, _READY, t_read, sensed))

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
        dies = self.geometry.total_dies
        left = dies

        def finish() -> None:
            nonlocal left
            left -= 1
            if not left:
                self._obs_segment_erases.inc()
                self._obs_block_erases.inc(dies)
                done.succeed()

        t_erase = self.timing.block_erase
        for die in range(dies):
            self._submit(_DieOp(env, die, _READY, t_erase, finish))
        return done

    # -- reporting -------------------------------------------------------------
    def utilization(self, t_end: float | None = None) -> float:
        """Mean die utilization in [0, 1] over the run so far."""
        t = self.env.now if t_end is None else t_end
        if t <= 0:
            return 0.0
        return self.die_busy_time / (t * self.geometry.total_dies)
