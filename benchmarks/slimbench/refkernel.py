"""A frozen reference kernel: how fast is this machine *right now*?

The sandbox's speed moves in phases that outlast a run: the same
replication (same input, same code) read 0.99 to 2.19 CPU seconds
within two minutes, and best-of-8 over a 20 s run still moved 50 %
between runs. No estimator over one run's replications can remove a
phase longer than the run, so host-clock metrics are reported in
*reference-speed seconds*:

    reported = raw CPU s × NOMINAL_S / (best kernel time seen in the run)

The kernel is a miniature discrete-event simulation (generator
processes, an event heap, a ~20 MB store of byte values) so that cache
and memory contention slow it roughly as they slow the simulator. It
shares no code with ``src/``: a change to the simulator cannot move it.
``NOMINAL_S`` is its best time on the box the benchmark was defined on
in a quiet phase, so reference-speed seconds read as real seconds
there. **Never edit this file**: doing so rescales every host metric.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

__all__ = ["NOMINAL_S", "kernel", "sample"]

NOMINAL_S = 0.033

_KEYS = 20_000
_STORE: dict[bytes, bytes] = {}


class _Event:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None


def kernel(n_proc: int = 200, steps: int = 150) -> int:
    """30 000 process resumptions over a shared store."""
    if not _STORE:
        rnd = random.Random(1)
        for i in range(_KEYS):
            _STORE[i.to_bytes(8, "big")] = bytes(
                rnd.getrandbits(8) for _ in range(64)) * 16
    store = _STORE
    keys = list(store)
    heap: list = []
    seq = 0
    now = 0.0
    done = 0

    def proc(pid: int):
        for s in range(steps):
            k = keys[(pid * 7919 + s * 104729) % _KEYS]
            v = store[k]
            if s % 4 == 0:
                store[k] = v[1:] + v[:1]
            yield _Event(), 1e-6 * ((pid + s) % 13 + 1)

    for p in [proc(i) for i in range(n_proc)]:
        ev, dt = next(p)
        seq += 1
        heapq.heappush(heap, (now + dt, seq, ev, p))
    while heap:
        now, _, ev, p = heapq.heappop(heap)
        ev.value = now
        try:
            ev2, dt = p.send(now)
        except StopIteration:
            done += 1
            continue
        seq += 1
        heapq.heappush(heap, (now + dt, seq, ev2, p))
    return done


def sample(repeats: int = 4) -> float:
    """Best CPU seconds of ``repeats`` kernel runs. The collector is
    off meanwhile: its cost grows with the caller's heap, and the
    kernel must not depend on who calls it."""
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.process_time()
            kernel()
            best = min(best, time.process_time() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best
