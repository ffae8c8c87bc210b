"""From raw replications to named metrics.

Simulated-clock end-to-end metrics are computed over the *union* of a
run's replications (pooled latency samples, summed ops / pages / bytes
over summed simulated seconds): a run is N independent servers under
the same frozen scenario, one sub-seed each. That is what lets a
p99.9 keep ten samples beyond it while one replication stays a couple
of host seconds. Per-layer metrics describe a single replication.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .scenarios import Replication, SystemRun
from .systems import MB

__all__ = ["end_to_end", "layer_counters", "trace_layers", "profile_layers",
           "P999_FLOOR"]

#: a p99.9 needs ten samples beyond it
P999_FLOOR = 10_000

_CLAIMS = json.loads(
    (Path(__file__).parent / "paper_claims.json").read_text())


class _Pool:
    """The union of one system's measured windows across replications."""

    def __init__(self, runs: list[SystemRun]):
        self.ops = sum(r.ops for r in runs)
        self.sim_s = sum(r.sim_s for r in runs)
        self.set_lat = np.concatenate([np.asarray(r.set_lat) for r in runs])
        self.get_lat = np.concatenate([np.asarray(r.get_lat) for r in runs])
        self.snapshots = [s for r in runs for s in r.snapshots]
        self.recovered = sum(r.recovered_bytes for r in runs)
        self.recovery_s = sum(r.recovery_s for r in runs)
        self.host_pages = sum(r.counters["host_pages_written"] for r in runs)
        self.gc_pages = sum(r.counters["gc_pages_copied"] for r in runs)
        self.erased = sum(r.counters["segments_erased"] for r in runs)

    @property
    def rps(self) -> float:
        return self.ops / self.sim_s

    @property
    def waf(self) -> float:
        return (self.host_pages + self.gc_pages) / self.host_pages

    @property
    def snapshot_s(self) -> float:
        if not self.snapshots:
            return 0.0
        return float(np.mean([s.duration for s in self.snapshots]))

    @property
    def recovery_mbps(self) -> float:
        return self.recovered / self.recovery_s / MB

    def p(self, which: str, q: float) -> float:
        return float(np.percentile(getattr(self, which), q)) * 1e6

    def kernel_share_pct(self) -> float:
        total = sum(s.duration for s in self.snapshots)
        return 100.0 * sum(s.time_in_kernel() for s in self.snapshots) / total


def _cut(slim: float, base: float) -> float:
    return 100.0 * (1.0 - slim / base)


def _gain(slim: float, base: float) -> float:
    return 100.0 * (slim / base - 1.0)


def _fidelity(name: str, s: _Pool, b: _Pool) -> float:
    measured = {
        "rps_gain_pct": lambda: _gain(s.rps, b.rps),
        "snapshot_cut_pct": lambda: _cut(s.snapshot_s, b.snapshot_s),
        "set_p999_cut_pct": lambda: _cut(s.p("set_lat", 99.9),
                                         b.p("set_lat", 99.9)),
        "get_p999_cut_pct": lambda: _cut(s.p("get_lat", 99.9),
                                         b.p("get_lat", 99.9)),
        "baseline_waf_excess": lambda: b.waf - 1.0,
        "recovery_time_cut_pct": lambda: _cut(s.recovery_s, b.recovery_s),
        "recovery_mbps_gain_pct": lambda: _gain(s.recovery_mbps,
                                                b.recovery_mbps),
        "snapshot_kernel_share_pct": b.kernel_share_pct,
    }
    errs = [abs(measured[c["claim"]]() - c["paper"]) / abs(c["paper"])
            for c in _CLAIMS[name]]
    return 100.0 * float(np.mean(errs))


def _rate_verdicts(wl: dict, reps: list[Replication]):
    """Per offered rate: (rate, pooled p99.9 in us, samples, backlog, ok)."""
    out = []
    for i, rate in enumerate(wl["rates"]):
        points = [rep.rates[i] for rep in reps]
        lat = np.concatenate([p.lat for p in points])
        backlog = sum(p.backlog for p in points)
        p999 = float(np.percentile(lat, 99.9)) * 1e6
        ok = backlog == 0 and p999 <= wl["p999_limit_us"]
        out.append((rate, p999, len(lat), backlog, ok))
    return out


def end_to_end(name: str, wl: dict, reps: list[Replication],
               floors: bool = True):
    """Simulated-clock end-to-end metrics of a run.

    Returns ``(values, samples, misses)``: metric → value, metric →
    sample count behind it, and the failed output checks (``floors``
    off skips the sample-count and GC-regime floors, for ``--smoke``).
    """
    s = _Pool([rep.runs["slimio"] for rep in reps])
    b = _Pool([rep.runs["baseline"] for rep in reps]) \
        if "baseline" in reps[0].runs else None
    values = {
        "slimio_waf": s.waf,
        "slimio_snapshot_s": s.snapshot_s,
        "slimio_recovery_mbps": s.recovery_mbps,
    }
    samples = {
        "slimio_waf": int(s.host_pages),
        "slimio_snapshot_s": len(s.snapshots),
        "slimio_recovery_mbps": len(reps),
    }
    misses = [m for rep in reps for m in rep.misses]
    if not s.snapshots:
        misses.append("no SlimIO snapshot finished inside a measured window")
    floored = []
    if s.ops:
        values.update({
            "slimio_rps": s.rps,
            "slimio_set_p50_us": s.p("set_lat", 50),
            "slimio_set_p999_us": s.p("set_lat", 99.9),
        })
        samples.update({
            "slimio_rps": s.ops,
            "slimio_set_p50_us": len(s.set_lat),
            "slimio_set_p999_us": len(s.set_lat),
        })
        floored.append("slimio_set_p999_us")
    if len(s.get_lat):
        values["slimio_get_p999_us"] = s.p("get_lat", 99.9)
        samples["slimio_get_p999_us"] = len(s.get_lat)
        floored.append("slimio_get_p999_us")
    if b is not None:
        if s.ops:
            values["rps_gain_pct"] = _gain(s.rps, b.rps)
            values["set_p999_cut_pct"] = _cut(s.p("set_lat", 99.9),
                                              b.p("set_lat", 99.9))
            samples["rps_gain_pct"] = s.ops
            samples["set_p999_cut_pct"] = len(s.set_lat)
        values["fidelity_err_pct"] = _fidelity(name, s, b)
        samples["fidelity_err_pct"] = len(_CLAIMS[name])
    if floors:
        misses += [f"{m}: {samples[m]} samples, p99.9 needs {P999_FLOOR}"
                   for m in floored if samples[m] < P999_FLOOR]

    if name == "redis_set_gc" and floors:
        if s.erased < wl["min_segments_erased"]:
            misses.append(f"GC regime: {s.erased:.0f} segments erased, "
                          f"need {wl['min_segments_erased']}")
        for i, rep in enumerate(reps):
            c = rep.runs["baseline"].counters
            if c["gc_pages_copied"] <= 0:
                misses.append(f"GC regime: replication {i}: the baseline "
                              "device copied no page")
            wraps = (c["host_pages_written"] * 4096
                     / (wl["device_mb"] * MB))
            if wraps < wl["min_wraps"]:
                misses.append(f"GC regime: replication {i}: device wrapped "
                              f"{wraps:.2f}x, need {wl['min_wraps']}")
    if name == "ycsb_a_always":
        if s.gc_pages or b.gc_pages:
            misses.append("no-GC regime: the device copied pages")
        if s.waf != 1.0:
            misses.append(f"SlimIO WAF is {s.waf!r}, must be exactly 1.0")
    if name == "openloop_net":
        verdicts = _rate_verdicts(wl, reps)
        passing = [v[0] for v in verdicts if v[4]]
        if not passing or len(passing) == len(verdicts):
            misses.append("offered rates must straddle the limit: "
                          f"{len(passing)} of {len(verdicts)} pass")
        values["slo_max_rate"] = float(max(passing, default=0))
        samples["slo_max_rate"] = min(v[2] for v in verdicts)
        if floors:
            misses += [f"rate {v[0]}: {v[2]} samples, p99.9 needs "
                       f"{P999_FLOOR}" for v in verdicts if v[2] < P999_FLOOR]
        for rep in reps:
            for p in rep.rates:
                if p.rate in passing and p.stats["completed"] != p.stats["issued"]:
                    misses.append(f"rate {p.rate}: completed != issued")
    return values, samples, misses


# ---------------------------------------------------------------- layers

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(wl: dict, rep: Replication) -> dict:
    """The (c) per-layer metrics of one replication. SlimIO-system
    values unless the name says ``baseline`` or the layer is ``kernel``
    (page cache, journal and block layer exist only on the baseline
    path; ``ring_*`` only on SlimIO). ``sim.*`` totals cover every
    system the replication built, because host time does too."""
    s = rep.runs["slimio"]
    b = rep.runs.get("baseline")
    c = s.counters
    bc = b.counters if b is not None else {}
    every = [p.run.counters for p in rep.rates] if rep.rates \
        else [r.counters for r in rep.runs.values()]
    snaps = s.snapshots
    snap_total = sum(x.duration for x in snaps)
    hits, waits = c.get("readahead_hits_total", 0.0), \
        c.get("readahead_waits_total", 0.0)
    ra_total = hits + waits + c.get("readahead_random_misses_total", 0.0)
    out = {
        "sim.events_dispatched": sum(e["events_processed"] for e in every),
        "sim.events_absorbed": sum(e["events_absorbed"] for e in every),
        "flash.host_pages_written": c["host_pages_written"],
        "flash.gc_pages_copied": c["gc_pages_copied"],
        "flash.baseline_gc_pages_copied": bc.get("gc_pages_copied", 0.0),
        "flash.segments_erased": c["segments_erased"],
        "flash.copyfree_erases": c["copyfree_erases"],
        "flash.host_stall_s": c["host_stall_s"],
        "flash.die_busy_s": c["die_busy_s"],
        "flash.baseline_waf": _ratio(
            bc.get("host_pages_written", 0.0) + bc.get("gc_pages_copied", 0.0),
            bc.get("host_pages_written", 0.0)),
        "nvme.write_cmds": c["write_cmds"],
        "nvme.read_cmds": c["read_cmds"],
        "nvme.deallocate_cmds": c["deallocate_cmds"],
        "kernel.journal_commits": bc.get("fs_journal_commits_total", 0.0),
        "kernel.journal_pages": bc.get("fs_journal_pages_total", 0.0),
        "kernel.writeback_pages": bc.get("pagecache_writeback_pages_total", 0.0),
        "kernel.throttle_wait_s": bc.get("pagecache_throttle_wait_seconds.sum", 0.0),
        "kernel.commit_lock_wait_s": bc.get("fs_commit_lock_wait_seconds.sum", 0.0),
        "kernel.block_cmds": bc.get("block_cmds_total", 0.0),
        "kernel.cpu_s.fs": bc.get("fs_cpu_s", 0.0),
        "kernel.ring_submits": c.get("uring_submitted_total", 0.0),
        "kernel.ring_completion_us_mean": 1e6 * _ratio(
            c.get("uring_completion_seconds.sum", 0.0),
            c.get("uring_completion_seconds.count", 0.0)),
        "kernel.ring_retries": c.get("uring_retries_total", 0.0),
        "persist.wal_flushes": c.get("wal_flush_bytes.count", 0.0),
        "persist.wal_flush_bytes_mean": _ratio(
            c.get("wal_flush_bytes.sum", 0.0),
            c.get("wal_flush_bytes.count", 0.0)),
        "persist.wal_group_commits": c.get("wal_group_commits_total", 0.0),
        "persist.wal_backpressure_waits": c.get("wal_backpressure_waits_total", 0.0),
        "persist.snapshot_count": len(snaps),
        "persist.snapshot_inmem_pct": 100 * _ratio(
            sum(x.time_in_memory() for x in snaps), snap_total),
        "persist.snapshot_kernel_pct": 100 * _ratio(
            sum(x.time_in_kernel() for x in snaps), snap_total),
        "persist.snapshot_ssd_pct": 100 * _ratio(
            sum(x.time_on_ssd() for x in snaps), snap_total),
        "persist.compress_ratio": _ratio(
            sum(x.written_bytes for x in snaps),
            sum(x.raw_bytes for x in snaps)),
        "persist.recovery_s": s.recovery_s,
        "persist.recovery_stale_keys": s.stale_keys + (
            b.stale_keys if b is not None else 0),
        "imdb.commands": c.get("server_commands_total", 0.0),
        "imdb.wal_buffer_stalls": c.get("server_wal_buffer_stalls_total", 0.0),
        "imdb.peak_resident_mb": s.peak_resident / MB,
        "core.walpath_flush_pages": c.get("walpath_flush_pages_total", 0.0),
        "core.walpath_meta_writes": c.get("walpath_meta_writes_total", 0.0),
        "core.snapshot_path_pages": c.get("snapshot_path_pages_total", 0.0),
        "core.readahead_hit_pct": 100 * _ratio(hits, ra_total),
        "core.readahead_waits": waits,
    }
    if b is not None:
        pb = _Pool([b])
        out["core.baseline_snapshot_s"] = pb.snapshot_s
        out["core.baseline_recovery_mbps"] = pb.recovery_mbps
        if pb.ops:
            out["core.baseline_rps"] = pb.rps
            out["core.baseline_set_p999_us"] = pb.p("set_lat", 99.9)
    if rep.rates:
        report = rep.rates[wl["report_rate_index"]]
        st = report.stats
        out.update({
            "net.issued": st["issued"],
            "net.completed": st["completed"],
            "net.shed": sum(p.stats["shed"] for p in rep.rates),
            "net.dropped_cmds": sum(p.stats["dropped_cmds"] for p in rep.rates),
            "net.refused": sum(p.stats["refused"] for p in rep.rates),
            "net.backlog_at_horizon": sum(p.backlog for p in rep.rates),
            "net.peak_inflight": max(p.stats["peak_inflight"] for p in rep.rates),
            "net.max_conn_queue": max(p.stats["max_conn_queue"] for p in rep.rates),
        })
        for i, p in enumerate(rep.rates, 1):
            out[f"net.p999_us.r{i}"] = float(np.percentile(p.lat, 99.9)) * 1e6
    return out


# ---------------------------------------------------------------- traces

#: RequestTracer span layer -> slimbench metric stem
_SPAN_LAYERS = {
    "net": "net.queue_self_us",
    "server": "imdb.server_self_us",
    "wal": "persist.wal_self_us",
    "nvme": "nvme.self_us",
    "ftl": "flash.nand_self_us",
    "nand": "flash.nand_self_us",
}


def _self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent_id is not None:
            children.setdefault(sp.parent_id, []).append(sp)
    out = {}
    for sp in spans:
        covered, edge = 0.0, sp.t0
        for ch in sorted(children.get(sp.span_id, ()), key=lambda x: x.t0):
            a, z = max(ch.t0, edge), min(ch.t1, sp.t1)
            if z > a:
                covered += z - a
                edge = z
        out[sp.span_id] = (sp.t1 - sp.t0) - covered
    return out


def _trace_groups(tracer):
    """Closed spans of every request and background trace, by trace."""
    groups: dict[int, dict[int, object]] = {}
    for ctx in tracer.kept.values():
        for sp in ctx.spans:
            if sp.t1 is not None:
                groups.setdefault(sp.trace_id, {})[sp.span_id] = sp
    for sp in tracer.background:     # holds mirrored duplicates
        if sp.t1 is not None:
            groups.setdefault(sp.trace_id, {})[sp.span_id] = sp
    return [list(g.values()) for g in groups.values()]


def _layer_samples(tracer) -> tuple[dict[str, list[float]], int, float]:
    """Per metric stem, one self-time sample per trace that touched the
    layer; plus the span count and the worst generator lateness."""
    samples: dict[str, list[float]] = {}
    n_spans, late = 0, 0.0
    for spans in _trace_groups(tracer):
        n_spans += len(spans)
        selfs = _self_times(spans)
        per: dict[str, float] = {}
        for sp in spans:
            if sp.trace_id < 0 and sp.parent_id is None:
                continue      # anonymous root of a background activity
            if sp.name == "client_backlog":
                late = max(late, sp.t1 - sp.t0)
            if sp.name == "cpu_queue":
                stem = "imdb.cpu_queue_us"
            elif sp.layer == "pagecache":
                stem = "kernel.pagecache_self_us"
            else:
                stem = _SPAN_LAYERS[sp.layer]
            per[stem] = per.get(stem, 0.0) + selfs[sp.span_id]
        for stem, v in per.items():
            samples.setdefault(stem, []).append(v)
    return samples, n_spans, late


def trace_layers(rep: Replication) -> dict[str, float]:
    """The simulated-clock (t) metrics: per-layer self time, mean and
    p99.9 over traces, from the tracers the replication carried."""
    tracers = {k: rep.runs[k].tracer for k in ("baseline", "slimio")
               if k in rep.runs}
    s_samples, s_spans, late = _layer_samples(tracers["slimio"])
    out = {"obs.spans_recorded": float(s_spans),
           "net.generator_late_us_max": late * 1e6}
    if "baseline" in tracers:
        b_samples, b_spans, _ = _layer_samples(tracers["baseline"])
        out["obs.spans_recorded"] += b_spans
        s_samples["kernel.pagecache_self_us"] = b_samples.get(
            "kernel.pagecache_self_us", [])
    wanted = {
        "flash.nand_self_us": ("mean", "p999"),
        "nvme.self_us": ("mean", "p999"),
        "kernel.pagecache_self_us": ("p999",),
        "persist.wal_self_us": ("mean", "p999"),
        "imdb.server_self_us": ("mean", "p999"),
        "imdb.cpu_queue_us": ("p999",),
        "net.queue_self_us": ("mean", "p999"),
    }
    for stem, stats in wanted.items():
        v = np.asarray(s_samples.get(stem, [])) * 1e6
        for stat in stats:
            if not len(v):
                out[f"{stem}_{stat}"] = 0.0
            elif stat == "mean":
                out[f"{stem}_mean"] = float(v.mean())
            else:
                out[f"{stem}_p999"] = float(np.percentile(v, 99.9))
    return out


# ---------------------------------------------------------------- profile

_PACKAGES = ("sim", "flash", "nvme", "kernel", "persist", "imdb", "core",
             "net", "obs", "workloads")


def _package(filename: str) -> str | None:
    """``repro/<pkg>/`` of a source file; the load generator counts as
    ``workloads``; None for builtins, numpy, stdlib."""
    norm = filename.replace("\\", "/")
    if "/repro/" in norm:
        pkg = norm.split("/repro/", 1)[1].split("/", 1)[0]
        return pkg if pkg in _PACKAGES else "other"
    if norm.endswith("/slimbench/loadgen.py"):
        return "workloads"
    if "/slimbench/" in norm:
        return "other"
    return None


def profile_layers(stats: dict, measured_cpu_s: float) -> dict[str, float]:
    """Group a ``pstats`` table by package: ``<pkg>.host_self_s`` (the
    package's share of profiled self time, scaled to the untraced
    ``measured_cpu_s`` so the profiler's own cost cancels) and
    ``<pkg>.calls``. Self time of builtins, numpy and the stdlib is
    charged to the calling package through the caller edges."""
    tott: dict[str, float] = {}
    calls: dict[str, float] = {}

    def charge(func, amount: float, depth: int = 0) -> None:
        pkg = _package(func[0])
        if pkg is not None or depth > 8:
            tott[pkg or "other"] = tott.get(pkg or "other", 0.0) + amount
            return
        callers = stats[func][4] if func in stats else {}
        edge_total = sum(e[2] for e in callers.values())
        if not callers or edge_total <= 0:
            tott["other"] = tott.get("other", 0.0) + amount
            return
        for caller, edge in callers.items():
            if edge[2] > 0:
                charge(caller, amount * edge[2] / edge_total, depth + 1)

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        pkg = _package(func[0])
        if pkg is not None:
            calls[pkg] = calls.get(pkg, 0.0) + nc
        charge(func, tt)
    total = sum(tott.values())
    out = {}
    for pkg in (*_PACKAGES, "other"):
        out[f"{pkg}.host_self_s"] = measured_cpu_s * _ratio(
            tott.get(pkg, 0.0), total)
    out["sim.host_share_pct"] = 100 * _ratio(tott.get("sim", 0.0), total)
    out["sim.calls"] = calls.get("sim", 0.0)
    out["flash.calls"] = calls.get("flash", 0.0)
    return out
