"""Differential oracle for the NAND burst schedule.

:class:`repro.flash.NandArray` computes a burst's transfer pipeline in
closed form and schedules grants, releases and completions at absolute
instants. ``PageAtATimeNand`` below is the model that arithmetic stands
in for, written against nothing but ``Resource`` and ``env.timeout``:
one process per channel run, one process per page, a chained timeout
per page transfer, a timeout per program / sense / erase. It shares no
code with ``NandArray``, so a slip in the burst arithmetic (an arrival
instant, a ``max(grant, arrival)``, a release one page early) shows up
here as a completion instant that differs in the last bit.

Both models are driven with the same seeded op lists — contiguous and
scattered program/read bursts and segment erases, issued while earlier
ones are still in flight — and must agree exactly on every completion
instant and on every die's accumulated busy time. They are driven at
two timing sets: unround values, where unrelated chains never tie and
every instant carries rounding, and the round ``NandTiming()``
defaults, where completions of different channels' runs tie and only
the order of same-instant dispatches tells the models apart.
"""

from __future__ import annotations

import random
from itertools import groupby

import pytest

from repro.flash import FlashGeometry, NandArray, NandTiming
from repro.sim import Environment, Resource

GEOMETRY = FlashGeometry(channels=2, dies_per_channel=3, blocks_per_die=4,
                         pages_per_block=8)
#: deliberately not round, so instants of unrelated chains do not tie
#: and every completion instant carries rounding to get wrong
TIMING = NandTiming(page_read=41.3e-6, page_program=203.7e-6,
                    block_erase=1.9e-3, channel_transfer=3.3e-6)
#: production timings: round, so instants of different chains tie
DEFAULT_TIMING = NandTiming()


def _held(request):
    """Wait for a grant. A slot that was free at request time is held
    already, so there is nothing to wait for."""
    if not request.processed:
        yield request


class PageAtATimeNand:
    """Process-per-page NAND: the schedule ``NandArray`` must reproduce."""

    def __init__(self, env: Environment, geometry: FlashGeometry,
                 timing: NandTiming):
        self.env = env
        self.geometry = geometry
        self.timing = timing
        self.dies = [Resource(env) for _ in range(geometry.total_dies)]
        self.channels = [Resource(env) for _ in range(geometry.channels)]
        self.busy = [0.0] * geometry.total_dies

    def die_busy(self, die):
        return self.busy[die]

    def _runs(self, ppns):
        """Consecutive pages on one channel move as one transfer run."""
        geo = self.geometry
        dies = [geo.die_of_page(p) for p in ppns]
        return [(ch, list(run))
                for ch, run in groupby(dies, key=geo.channel_of_die)]

    def _finish(self, left, n, done):
        left[0] -= n
        if not left[0]:
            done.succeed()

    # -- program: channel, then per page transfer -> die -> program ---------
    def program_pages(self, ppns):
        done = self.env.event()
        if not ppns:
            return done.succeed()
        left = [len(ppns)]
        for ch, dies in self._runs(ppns):
            self.env.process(self._program_run(ch, dies, left, done))
        return done

    def _program_run(self, ch, dies, left, done):
        env = self.env
        channel = self.channels[ch]
        creq = channel.request()
        yield from _held(creq)
        # the run's pages queue for their dies when the transfer starts
        dreqs = [self.dies[d].request() for d in dies]
        for die, dreq in zip(dies, dreqs):
            yield env.timeout(self.timing.channel_transfer)
            env.process(self._program_page(die, dreq, left, done))
        channel.release(creq)

    def _program_page(self, die, dreq, left, done):
        yield from _held(dreq)
        yield self.env.timeout(self.timing.page_program)
        self.dies[die].release(dreq)
        self.busy[die] += self.timing.page_program
        self._finish(left, 1, done)

    # -- read: die-parallel senses, then the run streams out ----------------
    def read_pages(self, ppns):
        done = self.env.event()
        if not ppns:
            return done.succeed()
        left = [len(ppns)]
        for ch, dies in self._runs(ppns):
            unsensed = [len(dies)]
            for die in dies:
                self.env.process(
                    self._sense(ch, die, len(dies), unsensed, left, done))
        return done

    def _sense(self, ch, die, run_pages, unsensed, left, done):
        dreq = self.dies[die].request()
        yield from _held(dreq)
        yield self.env.timeout(self.timing.page_read)
        self.dies[die].release(dreq)
        self.busy[die] += self.timing.page_read
        unsensed[0] -= 1
        if unsensed[0]:
            return
        channel = self.channels[ch]
        creq = channel.request()
        yield from _held(creq)
        for _ in range(run_pages):
            yield self.env.timeout(self.timing.channel_transfer)
        channel.release(creq)
        self._finish(left, run_pages, done)

    # -- erase: every die, in parallel ---------------------------------------
    def erase_segment_ev(self, _seg):
        done = self.env.event()
        left = [self.geometry.total_dies]
        for die in range(self.geometry.total_dies):
            self.env.process(self._erase(die, left, done))
        return done

    def _erase(self, die, left, done):
        dreq = self.dies[die].request()
        yield from _held(dreq)
        yield self.env.timeout(self.timing.block_erase)
        self.dies[die].release(dreq)
        self.busy[die] += self.timing.block_erase
        self._finish(left, 1, done)


def _random_ops(seed: int, n: int = 48):
    """``[(issue instant, method, argument)]`` — gaps far shorter than a
    burst, so most ops land on dies and channels still busy."""
    rng = random.Random(seed)
    total = GEOMETRY.pages_per_segment * GEOMETRY.segments
    ops, t = [], 0.0
    for _ in range(n):
        t += rng.uniform(0.0, 150e-6)
        roll = rng.random()
        if roll < 0.08:
            ops.append((t, "erase_segment_ev", rng.randrange(4)))
            continue
        method = "program_pages" if roll < 0.6 else "read_pages"
        length = rng.randint(1, 20)
        if rng.random() < 0.5:
            start = rng.randrange(total - length)
            ppns = list(range(start, start + length))
        else:  # scattered: same-die repeats inside one run included
            ppns = [rng.randrange(total) for _ in range(length)]
        ops.append((t, method, ppns))
    return ops


def _drive(make_model, ops):
    """Issue ``ops`` on a fresh model; returns (completion instants in
    op order, per-die busy time, final clock)."""
    env = Environment()
    model = make_model(env)
    finished = [None] * len(ops)

    def issue(i, when, method, arg):
        yield env.at(when)
        yield getattr(model, method)(arg)
        finished[i] = env.now

    for i, op in enumerate(ops):
        env.process(issue(i, *op))
    env.run()
    busy = [model.die_busy(d) for d in range(GEOMETRY.total_dies)]
    return finished, busy, env.now


def _assert_models_agree(ops, timing=TIMING):
    got = _drive(lambda env: NandArray(env, GEOMETRY, timing), ops)
    want = _drive(lambda env: PageAtATimeNand(env, GEOMETRY, timing), ops)
    assert None not in want[0]
    # == on floats, on purpose: bit-identical, not approximately equal
    assert got == want


@pytest.mark.parametrize("seed", range(12))
def test_random_bursts_complete_at_identical_instants(seed):
    _assert_models_agree(_random_ops(seed))


@pytest.mark.parametrize("seed", range(200))
def test_random_bursts_agree_at_default_timings(seed):
    _assert_models_agree(_random_ops(seed), DEFAULT_TIMING)


@pytest.mark.parametrize("second_at", [0.0, 7.1e-6, 140e-6])
def test_two_overlapping_bursts_contend_for_the_same_dies(second_at):
    """The GC-vs-host case: a second burst over the same dies, issued at
    the same instant, mid-transfer, and mid-program of the first."""
    span = GEOMETRY.total_dies * 2
    first = list(range(0, span))
    second = list(range(GEOMETRY.pages_per_segment,
                        GEOMETRY.pages_per_segment + span))
    for a, b in (("program_pages", "program_pages"),
                 ("program_pages", "read_pages"),
                 ("read_pages", "program_pages"),
                 ("erase_segment_ev", "program_pages")):
        _assert_models_agree([
            (0.0, a, 0 if a == "erase_segment_ev" else first),
            (second_at, b, second),
        ])


class _LateDieRequests(PageAtATimeNand):
    """A plausible wrong model: each page queues for its die when its
    own transfer ends, not when the run's transfer starts."""

    def _program_run(self, ch, dies, left, done):
        channel = self.channels[ch]
        creq = channel.request()
        yield from _held(creq)
        for die in dies:
            yield self.env.timeout(self.timing.channel_transfer)
            self.env.process(self._program_page(
                die, self.dies[die].request(), left, done))
        channel.release(creq)


class _EarlyReadChannel(PageAtATimeNand):
    """A plausible wrong model: a read run queues for its channel when
    the read is issued, not when the run's last sense lands."""

    def read_pages(self, ppns):
        done = self.env.event()
        if not ppns:
            return done.succeed()
        left = [len(ppns)]
        for ch, dies in self._runs(ppns):
            creq = self.channels[ch].request()
            unsensed = [len(dies)]
            for die in dies:
                self.env.process(self._sense_early(
                    ch, creq, die, len(dies), unsensed, left, done))
        return done

    def _sense_early(self, ch, creq, die, run_pages, unsensed, left, done):
        dreq = self.dies[die].request()
        yield from _held(dreq)
        yield self.env.timeout(self.timing.page_read)
        self.dies[die].release(dreq)
        self.busy[die] += self.timing.page_read
        unsensed[0] -= 1
        if unsensed[0]:
            return
        yield from _held(creq)
        for _ in range(run_pages):
            yield self.env.timeout(self.timing.channel_transfer)
        self.channels[ch].release(creq)
        self._finish(left, run_pages, done)


def test_oracle_bites():
    """The comparison is not vacuous: moving the die request from the
    channel grant to the page's arrival reorders a contended die's
    queue, and requesting a read run's channel at issue instead of
    after its senses reorders a channel's queue; the completion
    instants say so, at both timing sets."""
    ops = _random_ops(3)
    for timing in (TIMING, DEFAULT_TIMING):
        got = _drive(lambda env: NandArray(env, GEOMETRY, timing), ops)
        for wrong in (_LateDieRequests, _EarlyReadChannel):
            want = _drive(lambda env: wrong(env, GEOMETRY, timing), ops)
            assert got[0] != want[0], (wrong.__name__, timing)
