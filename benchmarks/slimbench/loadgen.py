"""Seeded inputs and the simulated clients that issue them.

The seed reaches only this module: it fixes the key sequence, the
GET/SET roll and the per-op value size. The systems under test receive
the generated :class:`~repro.imdb.ClientOp` lists and nothing else.

Value sizes are drawn per op from a small set centred on the paper's
size (4 KiB redis-benchmark, 2 KiB YCSB). With one fixed size the
simulated SlimIO path is so regular that SET p50/p999 come out
bit-identical for every seed; a size mix keeps the mean the paper uses
and makes every latency depend on the seed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.imdb import ClientOp
from repro.persist import SnapshotKind
from repro.workloads import UniformKeys, ZipfianKeys, make_key, make_value

__all__ = ["closed_ops", "fill_ops", "value_tag", "ClosedLoopResult",
           "closed_loop"]

#: ``make_value``'s compressibility knob (its default; zlib-1 ≈ 0.65)
INCOMPRESSIBLE = 0.6


def _sizes(rng: np.random.Generator, n: int, value_sizes) -> np.ndarray:
    return np.asarray(value_sizes)[rng.integers(0, len(value_sizes), size=n)]


def closed_ops(seed: int, n: int, keys: int, value_sizes,
               get_ratio: float = 0.0, zipfian: bool = False) -> list[ClientOp]:
    """``n`` ops over ``keys`` records: uniform or zipfian key choice,
    a GET with probability ``get_ratio``, else a SET of a drawn size."""
    chooser = ZipfianKeys(keys, seed=seed) if zipfian \
        else UniformKeys(keys, seed=seed)
    idx = chooser.draw(n)
    rng = np.random.default_rng([seed, 0x51B])
    is_get = rng.random(n) < get_ratio
    sizes = _sizes(rng, n, value_sizes)
    ops = []
    for i in range(n):
        key = make_key(int(idx[i]))
        if is_get[i]:
            ops.append(ClientOp("GET", key))
        else:
            ops.append(ClientOp(
                "SET", key, make_value(key, int(sizes[i]), INCOMPRESSIBLE)))
    return ops


def fill_ops(seed: int, keys: int, value_sizes) -> list[ClientOp]:
    """One SET per record, in a seeded order with seeded sizes."""
    rng = np.random.default_rng([seed, 0xF111])
    order = rng.permutation(keys)
    sizes = _sizes(rng, keys, value_sizes)
    return [
        ClientOp("SET", make_key(int(k)),
                 make_value(make_key(int(k)), int(s), INCOMPRESSIBLE))
        for k, s in zip(order, sizes)
    ]


def value_tag(key: bytes) -> bytes:
    """The 8 bytes every ``make_value(key, ...)`` starts with."""
    return make_value(key, 8)


class ClosedLoopResult:
    """What the clients saw inside the measured window."""

    def __init__(self) -> None:
        self.t_open = 0.0       # sim instant the window opened
        self.t_done = 0.0       # sim instant the last client finished
        self.set_lat: list[float] = []
        self.get_lat: list[float] = []
        self.attempted = 0
        self.failed = 0

    @property
    def sim_s(self) -> float:
        return self.t_done - self.t_open


def closed_loop(system, ops: list[ClientOp], *, clients: int,
                warmup: int = 0, snapshot_at: float | None = None,
                on_window: Callable[[], None] | None = None,
                ) -> ClosedLoopResult:
    """``clients`` simulated clients, zero think time, one shared op list.

    The measured window opens when op ``warmup`` is pulled
    (``on_window`` fires then); earlier ops build state and are in no
    metric. ``snapshot_at`` (a fraction of the list) asks for one
    On-Demand snapshot, re-asking while another snapshot is running.
    A GET must return a value written for its key, else it counts as
    failed. Returns after every client has finished and no snapshot is
    in flight.
    """
    env, server = system.env, system.server
    res = ClosedLoopResult()
    n = len(ops)
    snap_idx = None if snapshot_at is None else int(n * snapshot_at)
    state = {"i": 0, "snap_pending": snap_idx is not None}

    def client():
        while True:
            i = state["i"]
            if i >= n:
                return
            state["i"] = i + 1
            if i == warmup:
                res.t_open = env.now
                if on_window is not None:
                    on_window()
            op = ops[i]
            t0 = env.now
            reply = yield from server.execute(op)
            if i >= warmup:
                res.attempted += 1
                if op.op == "GET":
                    res.get_lat.append(env.now - t0)
                    if reply is None or reply[:8] != value_tag(op.key):
                        res.failed += 1
                else:
                    res.set_lat.append(env.now - t0)
            if state["snap_pending"] and i >= snap_idx \
                    and server.start_snapshot(SnapshotKind.ON_DEMAND):
                state["snap_pending"] = False

    procs = [env.process(client(), name=f"slimbench-client-{c}")
             for c in range(clients)]
    for p in procs:
        env.run(until=p)
    res.t_done = env.now

    def settle():
        while server.snapshot_in_progress:
            yield env.timeout(1e-3)

    env.run(until=env.process(settle(), name="slimbench-settle"))
    return res
