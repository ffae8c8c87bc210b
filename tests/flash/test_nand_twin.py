"""Twin test: die FIFOs of self-dispatching entries vs a ``Resource`` per die.

``NandArray`` keeps each die as a FIFO of one entry per page operation
that is its own heap entry for the grant and the completion;
``tests/flash/twins.py::ResourceNandArray`` is the same class as it was
with a ``Resource``, a ``Request``, an ``env.at`` event and two closures
per operation. The claim is stronger than equal completion instants:
the heap must see the same pushes in the same order, so both are driven
one dispatch at a time and must agree on the ordered list of dispatch
instants, the number of dispatches, every completion instant, every
die's busy time and the final clock.

The bursts are built to tie: a few clients each issue bursts back to
back with pauses on a coarse grid (often none), so a follow-up burst is
pushed at the instant another burst's die grant is; scattered bursts
revisit dies inside one run; and the default timings are round, so
completions of different channels' runs land on one float and only
push order decides which dispatches first — which the clients see as
the order of same-instant completions, and then as their own timing.
"""

from __future__ import annotations

import random

import pytest

from repro.flash import FlashGeometry, NandArray, NandTiming
from repro.sim import Environment
from tests.flash.twins import ResourceNandArray

GEOMETRY = FlashGeometry(channels=3, dies_per_channel=2, blocks_per_die=4,
                         pages_per_block=8)
TIMINGS = {
    "defaults": NandTiming(),
    "unround": NandTiming(page_read=41.3e-6, page_program=203.7e-6,
                          block_erase=1.9e-3, channel_transfer=3.3e-6),
}


def _tie_prone_clients(seed: int, clients: int = 6, ops: int = 12):
    """Per client, ``[(pause, method, argument)]`` issued back to back:
    each op waits for the previous one, then a pause on a 50 µs grid
    (often zero), so follow-up bursts are pushed at the very instants
    where grants and completions of other bursts are pushed."""
    rng = random.Random(seed)
    total = GEOMETRY.pages_per_segment * GEOMETRY.segments
    plans = []
    for _ in range(clients):
        plan = []
        for _ in range(ops):
            pause = rng.choice((0, 0, 1, 2)) * 50e-6
            roll = rng.random()
            if roll < 0.08:
                plan.append((pause, "erase_segment_ev", rng.randrange(4)))
                continue
            method = "program_pages" if roll < 0.6 else "read_pages"
            length = rng.randint(1, 14)
            if rng.random() < 0.5:
                start = rng.randrange(total - length)
                ppns = list(range(start, start + length))
            else:  # scattered: same-die repeats inside one run included
                ppns = [rng.randrange(total) for _ in range(length)]
            plan.append((pause, method, ppns))
        plans.append(plan)
    return plans


def _drive(cls, timing, plans):
    env = Environment()
    model = cls(env, GEOMETRY, timing)
    completions = []

    def client(c, plan):
        for i, (pause, method, arg) in enumerate(plan):
            if pause:
                yield env.timeout(pause)
            yield getattr(model, method)(arg)
            completions.append((c, i, env.now))

    for c, plan in enumerate(plans):
        env.process(client(c, plan))
    dispatched = []
    while env.peek() != float("inf"):
        env.step()
        dispatched.append(env.now)
    return {
        # in completion order: same-instant completions keep their order
        "completions": completions,
        "busy": [model.die_busy(d) for d in range(GEOMETRY.total_dies)],
        "now": env.now,
        "events_processed": env.events_processed,
        "dispatch_instants": dispatched,
    }


@pytest.mark.parametrize("timing", sorted(TIMINGS))
@pytest.mark.parametrize("seed", range(20))
def test_same_dispatch_sequence_as_a_resource_per_die(seed, timing):
    plans = _tie_prone_clients(seed)
    got = _drive(NandArray, TIMINGS[timing], plans)
    want = _drive(ResourceNandArray, TIMINGS[timing], plans)
    assert len(want["completions"]) == sum(map(len, plans))
    assert got == want


def test_bursts_at_one_instant_over_the_same_dies():
    """Same-instant GC-vs-host contention on every die, at round timings."""
    span = GEOMETRY.total_dies * 2
    second = list(range(GEOMETRY.pages_per_segment,
                        GEOMETRY.pages_per_segment + span))
    plans = [[(0.0, "program_pages", list(range(span)))],
             [(0.0, "read_pages", second)],
             [(0.0, "erase_segment_ev", 2)],
             [(0.0, "program_pages", second[::-1])]]
    got = _drive(NandArray, TIMINGS["defaults"], plans)
    want = _drive(ResourceNandArray, TIMINGS["defaults"], plans)
    assert got == want
    # the case is tie-prone: some instant is dispatched more than once
    instants = want["dispatch_instants"]
    assert len(set(instants)) < len(instants)
