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

The page-at-a-time model this arithmetic stands in for (a process per
page, a chained timeout per transfer) lives in
``tests/flash/test_nand_oracle.py``, which requires bit-identical
completion instants and per-die busy time on seeded random bursts.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator, Sequence

from repro.flash.geometry import FlashGeometry, NandTiming
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Event, Resource

__all__ = ["NandArray"]


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
