"""The four workloads. Each function runs one *replication*: fresh
systems, inputs from one sub-seed, the frozen sizes of ``params.json``.

Why these four (the full argument is in README.md):

``redis_set_gc``
    SET-only, 50 closed-loop clients, Periodical-Log, a small device
    the WAL wraps several times. The only workload where the FTL
    (erase/trim/GC), background WAL flushing and the baseline's
    writeback + journal all work at once, so the only one where WAF
    and snapshot-under-GC mean anything.
``ycsb_a_always``
    50/50 GET/SET, zipfian, 16 clients, Always-Log, a device too large
    to collect. Every SET waits on WAL → (page cache + journal + block
    layer | ring/passthru) → NVMe → NAND; the FTL's GC does nothing.
    A change that helps ``redis_set_gc`` by batching flushes must show
    here if it hurts synchronous commits.
``snap_recover``
    Bulk load, On-Demand snapshot, power cut, recovery, byte-for-byte
    compare. Snapshot/codec/compression/read-ahead and the device's
    *read* bursts do the work; the request path and WAL are idle
    during the measured phase.
``openloop_net``
    Open loop: Poisson arrivals through ``repro.net`` at four fixed
    rates, SlimIO only. ``net`` + RESP + the server loop dominate
    host time while flash and kernel are idle — the mirror image of
    ``redis_set_gc`` — and the only place queueing ahead of the server
    is visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import SnapshotKind
from repro.net import (
    MIXES,
    BackpressurePolicy,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    run_open_loop,
)

from . import loadgen, systems

__all__ = ["SystemRun", "RatePoint", "Replication", "Stopwatch",
           "WORKLOADS", "run_replication"]


class Stopwatch:
    """Host CPU seconds, split into named phases. A ``profiler``
    (``cProfile.Profile``) is switched on for the measured phase only."""

    def __init__(self, profiler=None) -> None:
        self.cpu_s: dict[str, float] = {}
        self.profiler = profiler
        self._phase: str | None = None
        self._t = 0.0

    def phase(self, name: str | None) -> None:
        if self.profiler is not None and self._phase == "measured":
            self.profiler.disable()
        now = time.process_time()
        if self._phase is not None:
            self.cpu_s[self._phase] = (
                self.cpu_s.get(self._phase, 0.0) + now - self._t)
        self._phase, self._t = name, time.process_time()
        if self.profiler is not None and name == "measured":
            self.profiler.enable()


@dataclass
class SystemRun:
    """One system's measured window, raw (pooled later)."""

    ops: int = 0
    sim_s: float = 0.0
    set_lat: list[float] = field(default_factory=list)
    get_lat: list[float] = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # SnapshotStats
    recovered_bytes: int = 0
    recovery_s: float = 0.0
    peak_resident: float = 0.0
    #: keys recovered with an older value than the one acknowledged
    stale_keys: int = 0
    #: window delta of :func:`systems.probe`
    counters: dict[str, float] = field(default_factory=dict)
    tracer: object = None


@dataclass
class RatePoint:
    """One offered rate of ``openloop_net``."""

    rate: int
    arrivals: int
    lat: np.ndarray            # every completed command, from intended start
    stats: dict[str, float]    # NetFrontend.stats()
    run: SystemRun

    @property
    def backlog(self) -> int:
        return self.arrivals - len(self.lat)


@dataclass
class Replication:
    runs: dict[str, SystemRun] = field(default_factory=dict)
    rates: list[RatePoint] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)


def _close_window(system, rep: Replication, kind: str, run: SystemRun,
                  start: dict, sw: Stopwatch,
                  recover_kind: SnapshotKind | None,
                  stale_ok: bool = False) -> None:
    """Common tail of every system run: power cut, recovery, stop, and
    the output checks. ``recover_kind`` None skips the power cut (the
    run left work in flight, which its caller already counts as failed).
    """
    recovered = expected = None
    if recover_kind is not None:
        result, expected = systems.crash_recover(system, recover_kind)
        recovered = result.data
        run.recovered_bytes = sum(len(k) + len(v) for k, v in recovered.items())
        run.recovery_s = result.duration
    run.snapshots = [s for s in system.metrics.snapshots if s.ok]
    run.peak_resident = system.metrics.memory.peak
    run.counters = systems.delta(systems.probe(system), start)
    run.tracer = getattr(system, "rtrace", None)
    system.stop()
    sw.phase("check")
    misses, run.stale_keys = systems.output_checks(
        kind, system, recovered, expected)
    if run.stale_keys and not stale_ok:
        misses.append(f"{kind}: {run.stale_keys} of {len(expected)} keys "
                      "recovered with an older value than acknowledged")
    rep.misses += misses
    rep.runs[kind] = run


def closed_loop_workload(params: dict, wl: dict, seed: int, sw: Stopwatch,
                         tracer_kw: dict | None) -> Replication:
    """``redis_set_gc`` and ``ycsb_a_always``: baseline, then SlimIO."""
    rep = Replication()
    cfg = systems.system_config(params, wl)
    get_ratio = wl.get("get_ratio", 0.0)
    sw.phase("setup")
    ops = loadgen.closed_ops(
        seed, wl["warmup_ops"] + wl["measured_ops"], wl["keys"],
        wl["value_sizes"], get_ratio, zipfian=get_ratio > 0)
    preload = loadgen.fill_ops(seed, wl["keys"], wl["value_sizes"]) \
        if get_ratio > 0 else []
    for kind in ("baseline", "slimio"):
        sw.phase("setup")
        system = systems.build(kind, cfg, tracer_kw)
        if preload:
            # YCSB preloads its records; through the server, so they
            # are durable and the final compare covers them
            loadgen.closed_loop(system, preload, clients=wl["clients"])
        start: dict = {}

        def on_window(system=system, start=start):
            system.server.reset_metrics()
            start.update(systems.probe(system))
            sw.phase("measured")

        res = loadgen.closed_loop(
            system, ops, clients=wl["clients"], warmup=wl["warmup_ops"],
            snapshot_at=wl.get("snapshot_at"), on_window=on_window)
        run = SystemRun(ops=res.attempted, sim_s=res.sim_s,
                        set_lat=res.set_lat, get_lat=res.get_lat)
        rep.attempted += res.attempted
        rep.failed += res.failed
        _close_window(system, rep, kind, run, start, sw,
                      SnapshotKind.WAL_TRIGGERED, wl.get("stale_ok", False))
    return rep


def snap_recover(params: dict, wl: dict, seed: int, sw: Stopwatch,
                 tracer_kw: dict | None) -> Replication:
    """Bulk load (set-up), then snapshot → power cut → recovery."""
    rep = Replication()
    cfg = systems.system_config(params, wl)
    sw.phase("setup")
    ops = loadgen.fill_ops(seed, wl["keys"], wl["value_sizes"])
    for kind in ("baseline", "slimio"):
        sw.phase("setup")
        system = systems.build(kind, cfg, tracer_kw)
        start = systems.probe(system)
        # the fill is set-up: with one SET per key and nothing else
        # running, its simulated latencies do not depend on the seed
        res = loadgen.closed_loop(system, ops, clients=wl["clients"])
        systems.quiesce(system)
        sw.phase("measured")
        stats = system.env.run(
            until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
        if not stats.ok or stats.entries != wl["keys"]:
            rep.misses.append(f"{kind}: snapshot wrote {stats.entries} of "
                              f"{wl['keys']} entries (ok={stats.ok})")
        rep.attempted += res.attempted
        _close_window(system, rep, kind, SystemRun(), start, sw,
                      SnapshotKind.ON_DEMAND)
    return rep


def openloop_net(params: dict, wl: dict, seed: int, sw: Stopwatch,
                 tracer_kw: dict | None) -> Replication:
    """Four fixed offered rates, each on a fresh SlimIO system."""
    rep = Replication()
    cfg = systems.system_config(params, wl)
    sw.phase("setup")
    preload = loadgen.fill_ops(seed, wl["keys"], wl["fill_value_sizes"])
    for r, rate in enumerate(wl["rates"]):
        sw.phase("setup")
        duration = wl["commands_per_rate"][r] / rate
        system = systems.build("slimio", cfg, tracer_kw)
        loadgen.closed_loop(system, preload, clients=wl["connections"])
        env = system.env
        times = PoissonArrivals(rate, seed=seed + r).times(duration, t0=env.now)
        stream = OpStream(MIXES[wl["mix"]], len(times), wl["keys"],
                          value_size=wl["value_size"], seed=seed + r)
        arrivals = sum(len(stream.group(i)) for i in range(len(times)))
        fe = NetFrontend(
            env, system.server,
            NetConfig(pipeline_depth=wl["pipeline"],
                      conn_queue=wl["conn_queue"],
                      max_inflight=wl["max_inflight"],
                      policy=BackpressurePolicy.BLOCK),
            rtrace=getattr(system, "rtrace", None))
        system.server.reset_metrics()
        start = systems.probe(system)
        sw.phase("measured")
        run_open_loop(
            env, fe, stream, times, clients=wl["connections"],
            horizon=duration * wl["horizon_factor"] + 0.01,
            servers=[system.server], snapshot_at=duration * wl["snapshot_at"],
            conn_lifetime=wl["conn_lifetime_groups"])
        comp = fe.completions
        t_int = np.array([c[0] for c in comp])
        lat = np.array([c[1] for c in comp]) - t_int
        is_set = np.array([c[2] == "SET" for c in comp], dtype=bool)
        run = SystemRun(
            ops=len(comp),
            sim_s=max(c[1] for c in comp) - float(times[0]),
            set_lat=lat[is_set].tolist(), get_lat=lat[~is_set].tolist())
        point = RatePoint(rate, arrivals, lat, fe.stats(), run)
        rep.rates.append(point)
        rep.attempted += arrivals
        rep.failed += point.backlog
        # with a backlog, sessions still hold unsent groups: there is
        # no clean instant to cut power at
        _close_window(system, rep, f"slimio@{rate}", run, start, sw,
                      None if point.backlog else SnapshotKind.ON_DEMAND)
    report = rep.rates[wl["report_rate_index"]]
    rep.runs["slimio"] = report.run
    return rep


WORKLOADS = {
    "redis_set_gc": closed_loop_workload,
    "ycsb_a_always": closed_loop_workload,
    "snap_recover": snap_recover,
    "openloop_net": openloop_net,
}


def run_replication(name: str, params: dict, wl: dict, seed: int,
                    tracer_kw: dict | None = None, profiler=None,
                    ) -> tuple[Replication, dict[str, float]]:
    """One replication of ``name``; returns it with the host CPU
    seconds of its ``setup`` / ``measured`` / ``check`` phases."""
    sw = Stopwatch(profiler)
    rep = WORKLOADS[name](params, wl, seed, sw, tracer_kw)
    sw.phase(None)
    return rep, sw.cpu_s
