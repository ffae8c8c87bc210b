"""The closed-loop driver and the measurement report.

A workload pre-draws its whole operation sequence (vectorized numpy);
:func:`closed_loop` spawns N client processes that pull from the shared
sequence and runs the simulation to completion (including any in-flight
snapshot); :func:`server_report` summarizes everything the paper's
tables read off one server's window. A single instance and every shard
of a cluster go through these two functions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.imdb import ClientOp
from repro.obs.registry import percentile
from repro.persist import SnapshotKind
from repro.workloads.keys import UniformKeys, ZipfianKeys, make_key, make_value

__all__ = ["WorkloadReport", "ClosedLoopWorkload", "RedisBenchWorkload",
           "YcsbAWorkload", "closed_loop", "server_report"]


@dataclass
class WorkloadReport:
    """Everything measured from one workload run."""

    ops: int = 0
    duration: float = 0.0
    rps: float = 0.0
    rps_wal_only: float = 0.0
    rps_wal_snapshot: float = 0.0
    set_p999: float = float("nan")
    get_p999: float = float("nan")
    set_mean: float = float("nan")
    steady_memory: float = 0.0
    peak_memory: float = 0.0
    snapshot_times: list[float] = field(default_factory=list)
    snapshot_count: int = 0
    waf: float = 1.0
    gc_segments_erased: int = 0
    gc_pages_copied: int = 0
    timeline: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def mean_snapshot_time(self) -> float:
        return float(np.mean(self.snapshot_times)) if self.snapshot_times \
            else float("nan")


def closed_loop(target, total: int, op_at: Callable[[int], ClientOp], *,
                clients: int, warmup_ops: int = 0,
                snapshot_at: int | None = None,
                baseline: Callable[[], object] = lambda: None):
    """Run ops ``op_at(0) .. op_at(total - 1)`` through ``target``.

    ``target`` is any deployment with ``env``, ``servers`` and
    ``execute(op)`` — one system or a cluster. ``clients`` processes
    share one cursor. When op ``warmup_ops`` is about to start the
    measurement window opens: every server's metrics are reset and
    ``baseline()`` is called (the caller opens its flash write
    window there). From op ``snapshot_at`` on, each server is asked for an
    On-Demand snapshot until it has taken one. Returns after every
    client is done and no server is snapshotting.

    Returns ``(t0, base)``: when the window opened and what
    ``baseline()`` returned then.
    """
    if not 0 <= warmup_ops < total:
        raise ValueError("warmup_ops must be in [0, total ops)")
    env = target.env
    servers = target.servers
    cursor = 0
    t0 = base = None
    unsnapshotted = list(servers) if snapshot_at is not None else []

    def client():
        nonlocal cursor, t0, base
        while cursor < total:
            i = cursor
            cursor += 1
            if t0 is None and i >= warmup_ops:
                t0 = env.now
                for server in servers:
                    server.reset_metrics()
                base = baseline()
            yield from target.execute(op_at(i))
            if unsnapshotted and i >= snapshot_at:
                # keep asking: a WAL-snapshot may be in flight (only
                # one snapshot runs at a time per server, §2.1)
                unsnapshotted[:] = [
                    s for s in unsnapshotted
                    if s.start_snapshot(SnapshotKind.ON_DEMAND) is None
                ]

    procs = [env.process(client(), name=f"client-{c}")
             for c in range(clients)]
    for p in procs:
        env.run(until=p)

    def settle():
        # idle_wait: the predicate reads sim state only, so ticks
        # strictly before the next scheduled event cannot change it
        while any(s.snapshot_in_progress for s in servers):
            yield env.idle_wait(1e-3)

    env.run(until=env.process(settle(), name="settle"))
    return t0, base


def _rate_timeline(t: np.ndarray, bin_width: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted event instants → (bin centres, events per second) over
    ``[t[0], t[-1]]`` (the RPS curves of Figures 4-5)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if len(t) == 0:
        return np.array([]), np.array([])
    lo, hi = t[0], t[-1]
    if hi <= lo:
        hi = lo + bin_width
    n_bins = max(1, int(np.ceil((hi - lo) / bin_width - 1e-9)))
    edges = lo + np.arange(n_bins + 1, dtype=np.float64) * bin_width
    # the last edge is pinned at >= hi so the event exactly at hi cannot
    # fall off the histogram to float rounding in the edge grid
    edges[-1] = max(edges[-1], hi)
    counts, edges = np.histogram(t, bins=edges)
    return (edges[:-1] + edges[1:]) / 2.0, counts / bin_width


def server_report(window, store, t0: float, now: float) -> WorkloadReport:
    """Fill a report from one server's metrics window and store.

    WAF and erase counts are device-side and depend on which streams
    the caller attributes to this server, so the caller adds them.
    """
    rep = WorkloadReport()
    t = window.op_times
    rep.ops = len(t)
    rep.duration = now - t0
    phases = window.phase_rps(t_end=now)
    rep.rps = phases["average"]
    rep.rps_wal_only = phases["wal_only"]
    rep.rps_wal_snapshot = phases["wal_snapshot"]
    sets = window.set_latency
    rep.set_p999 = percentile(sets, 99.9)
    rep.get_p999 = percentile(window.get_latency, 99.9)
    rep.set_mean = float(sets.mean()) if len(sets) else float("nan")
    rep.steady_memory = store.used_bytes
    rep.peak_memory = window.memory.peak
    rep.snapshot_times = [s.duration for s in window.snapshots]
    rep.snapshot_count = len(window.snapshots)
    if len(t) > 1:
        rep.timeline = _rate_timeline(t, max((t[-1] - t[0]) / 60.0, 1e-6))
    return rep


class ClosedLoopWorkload:
    """N clients, zero think time, a shared pre-drawn op sequence.

    A closed loop lets a slow server throttle its own load generator,
    so its latencies miss the queueing a fixed schedule would see; the
    open loop in :mod:`repro.net` measures from each request's intended
    start instead.
    """

    def __init__(
        self,
        clients: int = 8,
        total_ops: int = 5_000,
        key_count: int = 1_000,
        value_size: int = 1024,
        get_ratio: float = 0.0,
        zipfian: bool = False,
        seed: int = 7,
        preload_records: int = 0,
        snapshot_at_fraction: float | None = None,
    ):
        if clients < 1 or total_ops < 1:
            raise ValueError("clients and total_ops must be >= 1")
        if not 0.0 <= get_ratio <= 1.0:
            raise ValueError("get_ratio must be in [0, 1]")
        self.clients = clients
        self.total_ops = total_ops
        self.key_count = key_count
        self.value_size = value_size
        self.get_ratio = get_ratio
        self.zipfian = zipfian
        self.seed = seed
        self.preload_records = preload_records
        self.snapshot_at_fraction = snapshot_at_fraction

    # ------------------------------------------------------------------ sequence
    def _draw_sequence(self) -> tuple[np.ndarray, np.ndarray]:
        gen = (
            ZipfianKeys(self.key_count, seed=self.seed)
            if self.zipfian
            else UniformKeys(self.key_count, seed=self.seed)
        )
        keys = gen.draw(self.total_ops)
        rng = np.random.default_rng(self.seed ^ 0xBEEF)
        is_get = rng.random(self.total_ops) < self.get_ratio
        return keys, is_get

    def _op(self, key_idx: int, is_get: bool) -> ClientOp:
        key = make_key(int(key_idx))
        if is_get:
            return ClientOp("GET", key)
        return ClientOp("SET", key, make_value(key, self.value_size))

    # ------------------------------------------------------------------ running
    def preload(self, target) -> None:
        """Load initial records directly (setup phase, zero sim time)."""
        for i in range(self.preload_records):
            key = make_key(i)
            target.server_for_key(key).store.set(
                key, make_value(key, self.value_size))

    def drive(self, target, warmup_ops: int, baseline):
        """Preload, draw the sequence and run it through ``target``
        (a system or a cluster); see :func:`closed_loop`."""
        self.preload(target)
        keys, is_get = self._draw_sequence()
        return closed_loop(
            target, self.total_ops, lambda i: self._op(keys[i], is_get[i]),
            clients=self.clients, warmup_ops=warmup_ops,
            snapshot_at=(
                int(self.total_ops * self.snapshot_at_fraction)
                if self.snapshot_at_fraction is not None else None
            ),
            baseline=baseline,
        )

    def run(self, system, warmup_ops: int = 0) -> WorkloadReport:
        """Drive the system to completion and report.

        ``warmup_ops``: leading operations excluded from metrics (used
        to build GC pressure before measuring).
        """
        t0, writes = self.drive(system, warmup_ops, system.device.ftl.window)
        rep = server_report(system.metrics, system.server.store, t0,
                            system.env.now)
        rep.waf = writes.waf()
        rep.gc_pages_copied = writes.copied
        rep.gc_segments_erased = writes.erased
        return rep


class RedisBenchWorkload(ClosedLoopWorkload):
    """redis-benchmark shape: SET-only, uniform keys, large values."""

    def __init__(self, clients: int = 50, total_ops: int = 20_000,
                 key_count: int = 4_000, value_size: int = 4096,
                 seed: int = 7, **kw):
        super().__init__(
            clients=clients, total_ops=total_ops, key_count=key_count,
            value_size=value_size, get_ratio=0.0, zipfian=False, seed=seed,
            **kw,
        )


class YcsbAWorkload(ClosedLoopWorkload):
    """YCSB-A shape: 50/50 GET-SET, zipfian keys, preloaded records."""

    def __init__(self, clients: int = 8, total_ops: int = 20_000,
                 key_count: int = 2_000, value_size: int = 2048,
                 seed: int = 7, **kw):
        kw.setdefault("preload_records", key_count)
        super().__init__(
            clients=clients, total_ops=total_ops, key_count=key_count,
            value_size=value_size, get_ratio=0.5, zipfian=True, seed=seed,
            **kw,
        )
