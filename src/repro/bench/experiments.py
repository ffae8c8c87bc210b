"""One function per paper table/figure (§2.2, §3.1, §5).

Absolute numbers are not expected to match the paper (its testbed is a
dual-Xeon host with a FEMU-emulated 180 GB FDP SSD; ours is a scaled
discrete-event model). Every experiment therefore carries explicit
*shape checks* — who wins, in which direction, roughly by how much —
mirroring the claims the paper makes about that table or figure.

Every system an experiment or a sweep grid point measures goes through
one cell runner, :func:`_cell`: build, optionally load the keyspace and
quiesce, run the work, stop, book the registry snapshot.
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro import build_baseline, build_slimio
from repro.bench.report import ExperimentResult
from repro.bench.scales import BENCH_SCALE, Scale, get_scale
from repro.flash import FlashGeometry, FtlConfig
from repro.imdb import ClientOp
from repro.persist import LoggingPolicy, SnapshotKind
from repro.workloads import make_key, make_value

__all__ = [
    "table1", "table2", "table3", "table4", "table5",
    "figure2a", "figure2b", "figure4", "figure5", "cluster",
    "tailtrace", "crashmatrix", "openloop", "EXPERIMENTS",
    "single_sweep_config", "single_sweep_point",
    "cluster_sweep_config", "cluster_sweep_point", "sweep_grids",
    "pinned_cluster_config",
]

MB = 1024 * 1024

_POLICIES = (LoggingPolicy.PERIODICAL, LoggingPolicy.ALWAYS)
_SYSTEMS = (("Baseline", build_baseline), ("SlimIO", build_slimio))


# --------------------------------------------------------------------------
# the cell runner
# --------------------------------------------------------------------------

def _fill(system, n_keys: int, value_size: int) -> None:
    """Dataset setup through the server (pays sim time, builds WAL)."""
    env = system.env

    def filler():
        for i in range(n_keys):
            key = make_key(i)
            yield from system.server.execute(
                ClientOp("SET", key, make_value(key, value_size))
            )

    env.run(until=env.process(filler(), name="fill"))


def _cell(builder, config, work, *, warmup_ops: int = 0,
          loaded: Scale | None = None, book=None):
    """One system (or cluster) built from ``config``: the build -> run
    -> stop sequence every experiment cell and sweep grid point shares.

    ``loaded``: first SET that scale's redis keyspace through the
    server, then drain the WAL and wait out writeback, so a
    snapshot-from-rest cell really starts from an idle system.
    ``work`` is a closed-loop workload (run with ``warmup_ops``) or a
    ``callable(system)``. ``book=(result, label)`` books the stopped
    system's registry snapshot as ``result.telemetry[label]``.
    Returns ``(system, what the work returned)``.
    """
    system = builder(config=config)
    if loaded is not None:
        _fill(system, loaded.redis_keys, loaded.redis_value)
        env = system.env

        def quiesce():
            yield from system.wal.flush_now()
            cache = getattr(system, "cache", None)
            if cache is not None:
                while cache.dirty_bytes > 0:
                    yield env.idle_wait(1e-3)
            yield env.timeout(5e-3)

        env.run(until=env.process(quiesce(), name="quiesce"))
    out = (work(system) if callable(work)
           else work.run(system, warmup_ops=warmup_ops))
    system.stop()
    if book is not None:
        result, label = book
        result.telemetry[label] = system.obs.snapshot()
    return system, out


def _snapshot(system):
    """An On-Demand snapshot, run to completion; its stats."""
    return system.env.run(
        until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))


def _recovered(system):
    """Snapshot, cut power (cold caches: recovery reads from flash) and
    recover; the recovery result."""
    assert _snapshot(system).ok
    system.crash()
    return system.env.run(until=system.env.process(
        system.recover(SnapshotKind.ON_DEMAND)))


def _export_dir(var: str) -> str | None:
    """The directory the environment variable ``var`` names, created;
    None when it is unset. Exports are env-gated so an experiment's
    default output is pure text and the determinism harness never sees
    filesystem side effects."""
    out_dir = os.environ.get(var)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return out_dir or None


# --------------------------------------------------------------------------
# Table 1 — §2.2: degradation + memory growth during snapshots (baseline)
# --------------------------------------------------------------------------

def table1(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """RPS and peak memory, WAL-only vs Snapshot&WAL, on EXT4 and F2FS."""
    result = ExperimentResult(
        "Table 1",
        "Performance degradation and memory growth during snapshots",
        ["FS", "Phase", "Requests/s", "Peak memory (MB)"],
        paper_reference=(
            "EXT4: WAL-only 59,512 rps / 26 GB; Snapshot&WAL 42,885 / 51 GB\n"
            "F2FS: WAL-only 61,327 rps / 26 GB; Snapshot&WAL 43,112 / 52 GB\n"
            "(snapshot phase loses 28-31% RPS; memory roughly doubles)"
        ),
    )
    for fs in ("ext4", "f2fs"):
        _, rep = _cell(
            build_baseline, scale.system_config(gc_pressure=False, fs=fs),
            scale.redis_bench(snapshot_at_fraction=0.45), book=(result, fs))
        result.add_row(fs, "WAL only", rep.rps_wal_only,
                       rep.steady_memory / MB)
        result.add_row(fs, "Snapshot&WAL", rep.rps_wal_snapshot,
                       rep.peak_memory / MB)
        result.check(
            f"{fs}: snapshot phase RPS at least 10% below WAL-only",
            rep.rps_wal_snapshot < 0.9 * rep.rps_wal_only,
        )
        result.check(
            f"{fs}: peak memory grows by >40% during the snapshot",
            rep.peak_memory > 1.4 * rep.steady_memory,
        )
    return result


# --------------------------------------------------------------------------
# Table 2 — §3.1.2: file-system CPU share of the snapshot process (F2FS)
# --------------------------------------------------------------------------

def table2(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """CPU usage of the FS write path inside the snapshot process."""
    result = ExperimentResult(
        "Table 2",
        "File-system share of snapshot-process time (F2FS baseline)",
        ["Scenario", "FS share of snapshot time (%)"],
        paper_reference=(
            "Snapshot Only: 11.53%   Snapshot&WAL: 13.61%\n"
            "(control-path CPU, grows under concurrency)"
        ),
        notes=("share = control-path time (syscall + fs + page-cache "
               "management + commit-lock wait) over the snapshot "
               "process's CPU time (device waits excluded), from the "
               "snapshot child's account — the paper's perf-style "
               "CPU-cycle attribution"),
    )
    shares = {}
    for scenario, work in (
        ("Snapshot Only", _snapshot),
        ("Snapshot&WAL", scale.redis_bench(
            total_ops=max(scale.redis_ops, 2000), snapshot_at_fraction=0.1)),
    ):
        system, stats = _cell(build_baseline, scale.system_config(
            gc_pressure=False, fs="f2fs", trigger=False), work,
            loaded=scale, book=(result, scenario))
        if work is not _snapshot:
            stats = system.metrics.snapshots[0]
        fs_time = sum(stats.breakdown.get(k, 0.0) for k in
                      ("fs", "fs_lock_wait", "syscall", "pagecache"))
        cpu_time = sum(v for k, v in stats.breakdown.items()
                       if k not in ("ssd_wait", "dirty_throttle"))
        share = 100.0 * fs_time / cpu_time
        shares[scenario] = share
        result.add_row(scenario, share)
    result.check(
        "FS share does not shrink materially under concurrency "
        "(paper: it grows ~2pp)",
        shares["Snapshot&WAL"] > shares["Snapshot Only"] - 1.0,
    )
    result.check(
        "FS share is a non-negligible fraction (>1%)",
        shares["Snapshot Only"] > 1.0,
    )
    return result


# --------------------------------------------------------------------------
# Figure 2a — §3.1: snapshot time attribution across three scenarios
# --------------------------------------------------------------------------

class _Fig2Runs(NamedTuple):
    """The three §3.1 scenarios on the baseline."""

    #: scenario -> the snapshot it reports
    stats: dict
    #: segments erased over the GC scenario's whole run
    gc_erased: int


def _fig2_scenarios(scale: Scale, result: ExperimentResult) -> _Fig2Runs:
    """Run the three §3.1 scenarios, booking each one's telemetry."""
    idle = scale.system_config(gc_pressure=False, trigger=False)
    # (1) Snapshot Only: quiescent server, large device
    _, only = _cell(build_baseline, idle, _snapshot, loaded=scale,
                    book=(result, "Snapshot Only"))
    # (2) Snapshot & WAL: concurrent clients, large device
    wal, _ = _cell(build_baseline, idle,
                   scale.redis_bench(snapshot_at_fraction=0.3),
                   book=(result, "Snapshot & WAL"))
    # (3) Snapshot & WAL (under GC): small device + churn warmup; the
    # WAL-snapshot trigger stays on so the log rotates (it is also what
    # creates the short-lived/long-lived mix on the device)
    gc, _ = _cell(
        build_baseline, scale.system_config(gc_pressure=True, trigger=True),
        scale.redis_bench(snapshot_at_fraction=0.6),
        warmup_ops=scale.warmup_ops,
        book=(result, "Snapshot & WAL (under GC)"))
    return _Fig2Runs(
        {"Snapshot Only": only,
         "Snapshot & WAL": wal.metrics.snapshots[0],
         "Snapshot & WAL (under GC)": max(gc.metrics.snapshots,
                                          key=lambda s: s.duration)},
        gc.device.ftl.lifetime.erased)


def figure2a(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    result = ExperimentResult(
        "Figure 2a",
        "Snapshot time distribution (in-memory / kernel I/O / SSD wait)",
        ["Scenario", "Total (s)", "In-memory (%)", "Kernel I/O (%)",
         "SSD wait (%)"],
        paper_reference=(
            "Snapshot Only: ~15% of time in the kernel I/O path; the "
            "kernel+SSD share grows with concurrent WAL and grows again "
            "under GC; total snapshot time rises across the scenarios"
        ),
    )
    runs = _fig2_scenarios(scale, result)
    totals = {}
    kernel_share = {}
    for scenario, stats in runs.stats.items():
        d = stats.duration
        mem = 100.0 * stats.time_in_memory() / d
        ker = 100.0 * stats.time_in_kernel() / d
        ssd = 100.0 * stats.time_on_ssd() / d
        totals[scenario] = d
        kernel_share[scenario] = ker + ssd
        result.add_row(scenario, d, mem, ker, ssd)
    result.check(
        "concurrent WAL does not make the snapshot faster",
        totals["Snapshot & WAL"] > totals["Snapshot Only"] * 0.98,
    )
    result.check(
        "snapshot takes longest under GC",
        totals["Snapshot & WAL (under GC)"] > totals["Snapshot & WAL"],
    )
    result.check("GC actually ran in scenario 3", runs.gc_erased > 0)
    result.check(
        "non-in-memory share grows with WAL concurrency",
        kernel_share["Snapshot & WAL"] > kernel_share["Snapshot Only"],
    )
    return result


def figure2b(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    result = ExperimentResult(
        "Figure 2b",
        "Snapshot vs ideal throughput across the three scenarios",
        ["Scenario", "Ideal (MB/s)", "Snapshot (MB/s)",
         "Snapshot/Ideal (%)"],
        paper_reference=(
            "Snapshot Only: ~15% below ideal; Snapshot&WAL: ~20% below "
            "ideal; snapshot throughput degrades further under GC while "
            "WAL throughput stays comparatively stable"
        ),
        notes="ideal = raw bytes / in-memory time (I/O fully overlapped)",
    )
    ratios = {}
    for scenario, stats in _fig2_scenarios(scale, result).stats.items():
        ideal = stats.raw_bytes / stats.time_in_memory()
        actual = stats.raw_bytes / stats.duration
        ratios[scenario] = actual / ideal
        result.add_row(scenario, ideal / MB, actual / MB,
                       100.0 * actual / ideal)
    result.check(
        "snapshot-only throughput is below ideal",
        ratios["Snapshot Only"] < 0.98,
    )
    result.check(
        "concurrent WAL does not raise snapshot efficiency",
        ratios["Snapshot & WAL"] < ratios["Snapshot Only"] * 1.02,
    )
    result.check(
        "GC-pressured snapshot is the least efficient of the three",
        ratios["Snapshot & WAL (under GC)"]
        < min(ratios["Snapshot Only"], ratios["Snapshot & WAL"]) * 1.02,
    )
    return result


# --------------------------------------------------------------------------
# Tables 3 & 4 — §5.2: overall evaluation
# --------------------------------------------------------------------------

#: the Baseline-vs-SlimIO shape checks of Tables 3 and 4, applied once
#: per policy: (text, predicate(baseline report, SlimIO report))
_VS_BASELINE = (
    ("SlimIO WAL-only RPS beats baseline",
     lambda b, s: s.rps_wal_only > b.rps_wal_only),
    ("SlimIO average RPS beats baseline", lambda b, s: s.rps > b.rps),
    ("SlimIO snapshot completes faster",
     lambda b, s: s.mean_snapshot_time < b.mean_snapshot_time),
    ("SlimIO SET p999 is lower", lambda b, s: s.set_p999 < b.set_p999),
    ("snapshot-phase RPS is roughly at parity (fork/CoW dominates both)",
     lambda b, s: s.rps_wal_snapshot > 0.6 * b.rps_wal_snapshot),
    ("memory footprints comparable (within 25%)",
     lambda b, s: abs(s.peak_memory - b.peak_memory)
     < 0.25 * max(b.peak_memory, 1)),
)
#: WAF rows, judged only where the device wraps (GC pressure)
_WAF_CHECKS = {
    LoggingPolicy.PERIODICAL: (
        ("SlimIO WAF == 1.00", lambda b, s: abs(s.waf - 1.0) < 1e-9),
        ("baseline WAF > 1.00", lambda b, s: b.waf > 1.0)),
    # scaled Always-Log runs retire WAL data so promptly that background
    # trims keep even the conventional device copy-free; direction (>=)
    # still holds
    LoggingPolicy.ALWAYS: (
        ("SlimIO WAF == 1.00", lambda b, s: abs(s.waf - 1.0) < 1e-9),
        ("baseline WAF >= SlimIO WAF", lambda b, s: b.waf >= s.waf)),
}
#: the row of a workload that issues GETs
_GET_CHECK = (("SlimIO GET p999 is lower (or at parity)",
               lambda b, s: s.get_p999 <= b.get_p999 * 1.05),)


def _overall(result: ExperimentResult, scale: Scale, workload,
             gc_pressure: bool) -> None:
    """Both policies x both systems through ``workload``, one row per
    run, then the check table per policy. Under GC pressure the runs
    warm up and WAF is judged; a workload that issues GETs adds the GET
    p999 column and its check after the gain check."""
    gets = workload.get_ratio > 0
    reports = {}
    for policy in _POLICIES:
        for name, builder in _SYSTEMS:
            _, rep = _cell(
                builder, scale.system_config(gc_pressure=gc_pressure,
                                             policy=policy),
                workload, warmup_ops=scale.warmup_ops if gc_pressure else 0,
                book=(result, f"{policy.value}/{name}"))
            reports[policy, name] = rep
            result.add_row(
                policy.value, name, rep.rps_wal_only,
                rep.steady_memory / MB, rep.rps_wal_snapshot,
                rep.peak_memory / MB, rep.rps, rep.mean_snapshot_time,
                rep.set_p999 * 1e3,
                *([rep.get_p999 * 1e3] if gets else []), rep.waf)

    def per_policy(table) -> None:
        for policy in _POLICIES:
            base = reports[policy, "Baseline"]
            slim = reports[policy, "SlimIO"]
            for text, ok in table(policy):
                result.check(f"{policy.value}: {text}", ok(base, slim))

    per_policy(lambda p: _VS_BASELINE + (_WAF_CHECKS[p] if gc_pressure
                                         else ()))
    gain = {p: reports[p, "SlimIO"].rps / max(reports[p, "Baseline"].rps, 1)
            for p in _POLICIES}
    result.check(
        "Always-Log gains exceed Periodical-Log gains (paper: 60% vs 15%)",
        gain[LoggingPolicy.ALWAYS] > gain[LoggingPolicy.PERIODICAL],
    )
    if gets:
        per_policy(lambda p: _GET_CHECK)


def table3(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Overall evaluation, redis-benchmark workload (GC pressure)."""
    result = ExperimentResult(
        "Table 3",
        "Overall evaluation with the Redis benchmark workload",
        ["Policy", "System", "WAL-only RPS", "Mem (MB)",
         "WAL&Snap RPS", "Peak mem (MB)", "Avg RPS", "Snap time (s)",
         "SET p999 (ms)", "WAF"],
        paper_reference=(
            "Periodical: baseline 57,482/42,301 rps, avg 47,993, snap 148 s, "
            "p999 5.103 ms, WAF 1.14; SlimIO 75,676/42,517, avg 55,043, "
            "snap 110 s, p999 2.351 ms, WAF 1.00\n"
            "Always: baseline 21,416/16,419, avg 19,044, snap 139 s, "
            "p999 7.822 ms, WAF 1.24; SlimIO 33,128/25,542, avg 31,407, "
            "snap 109 s, p999 3.343 ms, WAF 1.00"
        ),
    )
    _overall(result, scale, scale.redis_bench(snapshot_at_fraction=0.5),
             gc_pressure=True)
    return result


def table4(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Overall evaluation, YCSB-A workload (no GC)."""
    result = ExperimentResult(
        "Table 4",
        "Overall evaluation with the YCSB-A workload",
        ["Policy", "System", "WAL-only RPS", "Mem (MB)",
         "WAL&Snap RPS", "Peak mem (MB)", "Avg RPS", "Snap time (s)",
         "SET p999 (ms)", "GET p999 (ms)", "WAF"],
        paper_reference=(
            "Periodical: baseline 65,121/53,774, avg 61,696, snap 253 s, "
            "SET p999 0.711 ms, GET p999 0.673 ms; SlimIO 74,911/56,239, "
            "avg 68,244, snap 225 s, 0.635/0.577 ms\n"
            "Always: baseline 6,235/4,987, avg 6,192, snap 239 s, "
            "2.105/2.091 ms; SlimIO 12,537/10,285, avg 12,029, snap 224 s, "
            "0.950/0.933 ms"
        ),
    )
    _overall(result, scale, scale.ycsb_a(), gc_pressure=False)
    return result


# --------------------------------------------------------------------------
# Table 5 — §5.3: recovery
# --------------------------------------------------------------------------

def table5(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    result = ExperimentResult(
        "Table 5",
        "Recovery from a published snapshot",
        ["System", "Recovery time (s)", "Recovery throughput (MB/s)"],
        paper_reference=(
            "Baseline 55.38 s at 374.77 MB/s; SlimIO 44.12 s at "
            "471.13 MB/s (~20% faster via the passthru read-ahead buffer)"
        ),
    )
    outcomes = {}
    for name, builder in _SYSTEMS:
        _, rec = _cell(builder, scale.system_config(
            gc_pressure=False, trigger=False), _recovered, loaded=scale,
            book=(result, name))
        if rec.snapshot_entries != scale.redis_keys:
            raise AssertionError("recovery did not restore every entry")
        outcomes[name] = rec
        result.add_row(name, rec.duration, rec.throughput / MB)
    result.check(
        "SlimIO recovers faster than the baseline",
        outcomes["SlimIO"].duration < outcomes["Baseline"].duration,
    )
    result.check(
        "SlimIO recovery throughput is higher",
        outcomes["SlimIO"].throughput > outcomes["Baseline"].throughput,
    )
    return result


# --------------------------------------------------------------------------
# Figures 4 & 5 — §5.4: runtime RPS stability
# --------------------------------------------------------------------------

def _timeline(result: ExperimentResult, label: str, scale: Scale, builder,
              **config_overrides):
    """One GC-heavy Periodical-Log run of Figures 4/5, booked under
    ``label``; returns ``(system, report, row)``, the row starting
    ``label, median RPS, min/median, deep dips (<50 % median)``."""
    # figures 4/5 run the device at the paper's high utilization, where
    # GC must move valid data rather than just erase trimmed regions
    heavy = replace(
        scale,
        small_device_mb=scale.gc_heavy_device_mb,
        wal_trigger_bytes=scale.gc_heavy_trigger_bytes,
    )
    system, rep = _cell(
        builder,
        heavy.system_config(gc_pressure=True,
                            policy=LoggingPolicy.PERIODICAL,
                            **config_overrides),
        heavy.redis_bench(snapshot_at_fraction=None),
        warmup_ops=heavy.warmup_ops, book=(result, label))
    rates = rep.timeline[1]
    med = float(np.median(rates))
    ratio, dips = 1.0, 0
    if len(rates) >= 4 and med > 0:
        ratio = float(np.min(rates)) / med
        dips = int(np.sum(rates < 0.5 * med))
    return system, rep, [label, med, ratio, dips]


def figure4(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Baseline vs SlimIO-without-FDP under GC: the nosedives."""
    result = ExperimentResult(
        "Figure 4",
        "Runtime RPS under GC: baseline vs SlimIO without FDP",
        ["System", "Median RPS", "Min/Median", "Deep dips (<50% median)",
         "GC segment erases"],
        paper_reference=(
            "Baseline stays comparatively stable through GC windows; "
            "SlimIO WITHOUT FDP suffers sharp RPS drops — occasionally "
            "to zero — because direct writes expose it to GC stalls"
        ),
    )
    reports = {}
    for name, builder, overrides in (
        ("Baseline", build_baseline, {}),
        ("SlimIO (no FDP)", build_slimio, {"fdp": False}),
    ):
        system, rep, row = _timeline(result, name, scale, builder,
                                     **overrides)
        reports[name] = rep
        result.add_row(*row, system.device.ftl.lifetime.erased)
        result.series[name] = rep.timeline
    result.check(
        "GC events occurred in both runs",
        all(row[-1] > 0 for row in result.rows),
    )
    result.check(
        "the conventional kernel path pays GC copies (baseline WAF > 1)",
        reports["Baseline"].waf > 1.0,
    )
    result.check(
        "timelines recorded at useful resolution",
        all(len(r) >= 10 for _, r in result.series.values()),
    )
    result.notes = (
        "Known deviation (see EXPERIMENTS.md): the paper's non-FDP "
        "SlimIO nosedives are driven by GC valid-page copies at ~90% "
        "sustained device utilization. At our ~1000x-smaller scale, "
        "SlimIO's whole-region TRIMs retire entire flash segments, so "
        "its GC stays copy-free and its timeline is *more* stable than "
        "the paper shows; the exposure mechanism (direct writes with a "
        "bounded user buffer and no page cache) is implemented and "
        "surfaces as nosedives whenever GC does have to move data."
    )
    return result


def figure5(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """SlimIO with FDP: stable RPS through the same GC-heavy run."""
    result = ExperimentResult(
        "Figure 5",
        "Runtime RPS under GC: SlimIO with FDP",
        ["System", "Median RPS", "Min/Median", "Deep dips (<50% median)",
         "WAF", "GC pages copied"],
        paper_reference=(
            "With the FDP SSD, runtime RPS stays stable (70-80k in the "
            "paper) outside snapshot windows; WAF is 1.00"
        ),
    )
    _, fdp, fdp_row = _timeline(result, "SlimIO (FDP)", scale, build_slimio,
                                fdp=True)
    result.add_row(*fdp_row, fdp.waf, fdp.gc_pages_copied)
    result.series["SlimIO (FDP)"] = fdp.timeline
    # the baseline on the conventional device is the WAF counterpart
    # the paper reports in Table 3 (1.14/1.24 vs 1.00)
    _, base, base_row = _timeline(result, "Baseline (conventional)", scale,
                                  build_baseline)
    result.add_row(*base_row, base.waf, base.gc_pages_copied)
    result.check("FDP keeps WAF at exactly 1.00",
                 abs(fdp.waf - 1.0) < 1e-9)
    result.check("the conventional device pays WAF > 1.00",
                 base.waf > 1.0)
    result.check("FDP median RPS exceeds the baseline's",
                 fdp_row[1] > base_row[1])
    return result


# --------------------------------------------------------------------------
# Cluster — beyond the paper: hash-slot shards on one shared FDP device
# --------------------------------------------------------------------------

# The cluster experiment's device is pinned, not scale-derived: the
# point is multi-tenant pressure on ONE fixed piece of hardware, and
# the regime where PID sharing is visible in per-shard WAF is narrow.
# 22 MB over 4x8 dies = 22 one-MB flash segments; tight 8% OP. Every
# shard runs the identical instance config (a fixed 576 KB WAL trigger,
# like a fleet rollout of one redis.conf), so total live WAL bytes grow
# with the shard count: more tenants -> more live data + more open
# segments -> GC runs out of wholesale-dead victims. With dedicated
# PIDs (<=2 shards) every retirement still frees whole segments, so GC
# stays copy-free; shared streams interleave two shards' lifetimes
# inside a segment, and one tenant's retirement strands the other's
# live pages — the copies the per-shard WAF then reports.
_CLUSTER_DEVICE_MB = 22
_CLUSTER_WAL_TRIGGER = 576 * 1024
_CLUSTER_KEYS = 1500
# Client concurrency is part of the pinned regime too: the 576 KB
# trigger only leaves room for 8 writers' in-flight bytes while a
# snapshot drains, so a higher-scale client count would overflow the
# fixed WAL region rather than exercise more of it. Scales raise op
# VOLUME (duration), never the instantaneous pressure.
_CLUSTER_CLIENTS = 8
# Volume has a ceiling of its own: at 8 shards sharing the device, GC
# eventually exhausts wholesale-dead victims and snapshot writeback
# slows enough that one more WAL-snapshot cycle overruns a shard's
# slice of the fixed region. 2 x 32k ops (= 2x the bench tier) is
# comfortably inside that budget; higher tiers clamp to it rather
# than inherit a failure the pinned hardware cannot absorb.
_CLUSTER_OPS_EACH = 32_000


def _pinned_ftl(gc_stop_segments: int = 5) -> FtlConfig:
    """The tight FTL of every pinned-device run: 8 % over-provisioning,
    GC from 3 free segments up to ``gc_stop_segments``."""
    return FtlConfig(op_ratio=0.08, gc_trigger_segments=3,
                     gc_stop_segments=gc_stop_segments,
                     gc_reserve_segments=2)


def pinned_cluster_config(scale: Scale, num_shards: int,
                          design: str = "slimio", *, sharing=None,
                          policy: LoggingPolicy = LoggingPolicy.PERIODICAL,
                          ru_pages: int = 8, gc_stop_segments: int = 5):
    """``num_shards`` stacks on LBA partitions of the one shared pinned
    device; ``scale`` governs op volume, not the hardware. The cluster
    and tailtrace experiments and the cluster sweep grid all build
    here (the grid moves ``sharing``, ``policy``, ``ru_pages`` and
    ``gc_stop_segments``; ``sharing=None`` lets the PID allocator pick
    the least-sharing mode that fits)."""
    from repro.cluster import ClusterConfig

    geometry = FlashGeometry.scaled(
        mb=_CLUSTER_DEVICE_MB, channels=4, dies_per_channel=8,
        pages_per_block=ru_pages,
    )
    sys_cfg = scale.system_config(gc_pressure=True, policy=policy)
    sys_cfg = replace(
        sys_cfg,
        geometry=geometry,
        ftl=_pinned_ftl(gc_stop_segments),
        snapshot_fraction=0.45,
        server=replace(sys_cfg.server,
                       wal_snapshot_trigger_bytes=_CLUSTER_WAL_TRIGGER),
    )
    return ClusterConfig(num_shards=num_shards, design=design,
                         num_pids=8, sharing=sharing, system=sys_cfg)


def _pinned_workload(scale: Scale, **kw):
    """YCSB-A over the pinned device's fixed keyspace and client count.

    2x the single-instance op count: the whole cluster shares one
    device, so the write volume must wrap it even when split N ways.
    The early On-Demand backup plants a long-lived image per shard —
    under PID sharing it cohabits a stream with churning
    WAL-Snapshots, which is the lifetime mixing the paper's
    dedicated-PID design exists to avoid."""
    from repro.workloads import ClusterWorkload

    args = dict(clients=_CLUSTER_CLIENTS,
                total_ops=2 * min(scale.ycsb_ops, _CLUSTER_OPS_EACH),
                key_count=_CLUSTER_KEYS, snapshot_at_fraction=0.25)
    args.update(kw)
    return ClusterWorkload(scale.ycsb_a(**args))


def _pinned_run(scale: Scale, config, *, trace: bool = False, book=None,
                **workload_kw):
    """One warmed-up :func:`_pinned_workload` run of the cluster
    ``config`` — a cell of the cluster or tailtrace experiment, or a
    cluster grid point. ``trace`` attaches a request tracer before the
    run. Returns ``(cluster, ClusterReport, tracer or None)``."""
    from repro.cluster import build_cluster

    workload = _pinned_workload(scale, **workload_kw)

    def run(cl):
        tracer = (cl.attach_tracer(sample_every=16,
                                   keep_slowest=_TAILTRACE_TOPK)
                  if trace else None)
        return workload.run(cl, warmup_ops=scale.warmup_ops), tracer

    cl, (rep, tracer) = _cell(build_cluster, config, run, book=book)
    return cl, rep, tracer


def cluster(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Shard-count scaling, baseline vs SlimIO, on one 8-PID device.

    Beyond the paper: its single-instance design meets the deployment
    reality that one FDP device exposes 8 PIDs while every SlimIO
    instance wants 4. Dedicated PIDs last to 2 shards (WAF 1.00); at
    4+ the PID allocator's sharing mode keeps WAF bounded while
    aggregate throughput keeps scaling. The run ends with a live
    slot-range migration on the 4-shard SlimIO cluster to exercise
    the resharding path under the same shared device.
    """
    from repro.cluster import build_cluster, migrate_slots
    from repro.core.verify import verify_lba_space

    result = ExperimentResult(
        "Cluster",
        "Hash-slot shards scaling on one shared 8-PID FDP device "
        "(YCSB-A, aggregate + per-shard)",
        ["Design", "Shards", "PID mode", "Requests/s", "SET p999 (us)",
         "WAF"],
        paper_reference=(
            "No paper counterpart (the paper is single-instance). "
            "Expected shape: aggregate RPS grows with shard count for "
            "both designs; SlimIO per-shard WAF is 1.00 while PIDs are "
            "dedicated (<=2 shards on 8 PIDs) and stays bounded under "
            "PID sharing at 4+ shards; the baseline mixes every "
            "lifetime in one stream at any shard count."
        ),
    )
    shard_counts = (1, 2, 4, 8)
    agg = {}
    for design in ("baseline", "slimio"):
        for n in shard_counts:
            _, rep, _ = _pinned_run(
                scale, pinned_cluster_config(scale, n, design),
                book=(result, f"{design}-{n}"))
            mode = rep.pid_allocation.get("mode", "-")
            a = rep.aggregate
            result.add_row(design, n, mode, a.rps, a.set_p999 * 1e6, a.waf)
            if design == "slimio":
                for name, shard_rep in zip(rep.shard_names, rep.per_shard):
                    result.add_row(f"  {name}", "", "", shard_rep.rps,
                                   shard_rep.set_p999 * 1e6, shard_rep.waf)
            agg[(design, n)] = rep

    for design in ("baseline", "slimio"):
        result.check(
            f"{design}: 4-shard aggregate RPS above 1-shard",
            agg[(design, 4)].aggregate.rps > agg[(design, 1)].aggregate.rps,
        )
    for n in (1, 2):
        result.check(
            f"slimio {n}-shard: dedicated PIDs hold per-shard WAF at 1.00",
            all(abs(w - 1.0) < 1e-9 for w in agg[("slimio", n)].shard_waf),
        )
    for n in (4, 8):
        rep = agg[("slimio", n)]
        result.check(
            f"slimio {n}-shard ({rep.pid_allocation.get('mode')}): "
            f"shared PIDs measurably degrade WAF (> 1.0) but stay "
            f"bounded (< 2.0)",
            1.0 < max(rep.shard_waf) < 2.0,
        )
    result.check(
        "slimio: PID sharing at 4 shards costs more WAF than dedicated "
        "at 2",
        max(agg[("slimio", 4)].shard_waf)
        >= max(agg[("slimio", 2)].shard_waf),
    )

    # live resharding on a fresh 4-shard SlimIO cluster under the same
    # shared device: move half of shard 3's range to shard 0, then
    # verify both shards' LBA spaces still replay clean
    def reshard(cl):
        _pinned_workload(
            scale, snapshot_at_fraction=None,
            total_ops=max(2_000, min(scale.ycsb_ops, _CLUSTER_OPS_EACH) // 4),
        ).run(cl)
        lo, hi = cl.slot_map.shard_range(3)
        mid = (lo + hi) // 2
        return cl.env.run(until=cl.env.process(
            migrate_slots(cl, mid, hi, 0), name="reshard")), hi - mid

    cl, (mig, moving) = _cell(build_cluster, pinned_cluster_config(scale, 4),
                              reshard)
    result.add_row("reshard 3->0", 4, "collapse", float("nan"),
                   float("nan"), float("nan"))
    result.notes = (
        f"Migration moved {mig.slots_moved} slots, {mig.keys_migrated} "
        f"keys ({mig.keys_forwarded} forwarded in-flight) in "
        f"{mig.duration * 1e3:.1f} ms simulated."
    )
    result.check("slot migration moved a non-empty key set",
                 mig.keys_migrated > 0 and mig.slots_moved == moving)
    frac = cl.config.system.snapshot_fraction
    ok_src = verify_lba_space(cl.shards[3].partition, snapshot_fraction=frac)
    ok_dst = verify_lba_space(cl.shards[0].partition, snapshot_fraction=frac)
    result.check("both shards pass verify_lba_space after migration",
                 bool(ok_src) and bool(ok_dst))
    return result


# --------------------------------------------------------------------------
# Tail trace — per-request causal blame for tail latency
# --------------------------------------------------------------------------

#: slow-request reservoir per tailtrace config (covers p999 at any scale)
_TAILTRACE_TOPK = 24


def tailtrace(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Interference matrix with per-request causal evidence.

    The paper's Figure-level claim is that FDP write isolation removes
    GC-induced tail interference; aggregate WAF/p999 shows the effect
    but not the mechanism. Here every op is traced end to end, the
    top-K slowest are blame-assigned (which GC reclaim overlapped
    their I/O, and which tenants own the reclaimed stream), and the
    shared-PID config (4 tenants on 8 PIDs) must produce cross-tenant
    GC blame that the dedicated-PID config (2 tenants, PIDs fit)
    structurally cannot — its GC is copy-free.
    """
    from repro.obs.trace import (
        format_tail_table,
        format_waterfall,
        tail_report,
        write_trace_jsonl,
    )

    result = ExperimentResult(
        "Tail Trace",
        "Per-request causal blame for tail latency: shared vs dedicated "
        "PIDs on one 8-PID device",
        ["Config", "Shards", "PID mode", "Requests/s", "SET p999 (us)",
         "Slow ops", "GC-blamed", "Cross-tenant"],
        paper_reference=(
            "Figures 4/5 mechanism, evidenced per request: with more "
            "tenants than the PID budget fits, a tail op's critical "
            "path overlaps a copying GC on a stream owned by several "
            "tenants; when dedicated PIDs fit, GC is copy-free and no "
            "such attribution exists."
        ),
    )
    # The contrast is the paper's: the device exposes 8 PIDs, so two
    # tenants fit dedicated per-kind PIDs while four are forced into
    # sharing — same hardware, same PID budget, only tenant count
    # moves. Unlike the scaling experiment this runs Always-Log: every
    # SET waits for its WAL append, so a request's trace reaches the
    # device and a GC stall shows up *inside* the victim's critical
    # path instead of only shifting an asynchronous flush.
    runs = {}
    for label, num_shards in (("shared", 4), ("dedicated", 2)):
        cl, rep, tracer = _pinned_run(scale, pinned_cluster_config(
            scale, num_shards, policy=LoggingPolicy.ALWAYS), trace=True)
        tracer.drain_open()
        tail = tail_report(tracer.kept.values(), tracer.background,
                           cl.obs.spans_named("gc_reclaim"),
                           top_k=_TAILTRACE_TOPK,
                           stream_owners=cl.stream_owners(),
                           requests_seen=tracer.requests_seen)
        a = rep.aggregate
        result.add_row(
            label, num_shards, rep.pid_allocation.get("mode", "-"),
            a.rps, a.set_p999 * 1e6, len(tail.rows), len(tail.blamed),
            len(tail.cross_tenant),
        )
        result.telemetry[label] = {
            "requests_seen": float(tracer.requests_seen),
            "kept_traces": float(len(tracer.kept)),
            "background_spans": float(len(tracer.background)),
            "blamed": float(len(tail.blamed)),
            "cross_tenant": float(len(tail.cross_tenant)),
            "waf_max": float(max(rep.shard_waf)),
        }
        runs[label] = (cl, tail)
        out_dir = _export_dir("SLIMIO_TRACE_DIR")
        if out_dir:  # ``python -m repro.obs trace`` renders it for Perfetto
            write_trace_jsonl(
                os.path.join(out_dir, f"tailtrace_{label}.trace.jsonl"),
                tracer, cl.obs.spans, cl.stream_owners(),
                run=f"tailtrace-{label}")

    cl_shared, shared_tail = runs["shared"]
    ded_tail = runs["dedicated"][1]
    result.check(
        "shared PIDs: >=1 slow op causally blamed on a neighbor "
        "tenant's GC",
        len(shared_tail.cross_tenant) >= 1,
    )
    result.check(
        "dedicated PIDs: zero cross-tenant GC attributions",
        len(ded_tail.cross_tenant) == 0,
    )
    result.check(
        "dedicated PIDs: GC stays copy-free (per-shard WAF 1.00)",
        result.telemetry["dedicated"]["waf_max"] < 1.0 + 1e-9,
    )
    # worked example: the shared config's forensics table plus the
    # waterfall of its worst cross-tenant victim
    notes = [format_tail_table(shared_tail)]
    if shared_tail.cross_tenant:
        victim = shared_tail.cross_tenant[0]
        notes.append("")
        notes.append(format_waterfall(
            victim.ctx,
            [o for o in cl_shared.obs.spans
             if o.name in ("gc_reclaim", "snapshot")
             and int(o.labels.get("copied", 1) or 0) > 0],
        ))
    result.notes = "\n".join(notes)
    return result


# --------------------------------------------------------------------------
# Crash matrix — §4.2's durability claim, tested the hard way
# --------------------------------------------------------------------------

def crashmatrix(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Power-cut matrix over the SlimIO path (``repro.faults``).

    Not a paper table: the paper asserts §4.2's recovery invariants,
    this experiment enforces them — cut power at page-write boundaries
    and torn interiors across a workload, recover each image, and
    require the recovered keyspace to be an exact acked-or-in-flight
    prefix; then the transient-error lane requires seeded NVMe errors
    to be absorbed by the ring's retry policy without data loss.
    """
    from repro.faults.harness import (
        CrashMatrixConfig,
        run_crash_matrix,
        run_error_lane,
    )

    result = ExperimentResult(
        "Crash Matrix",
        "Power-cut / NVMe-error injection over the SlimIO I/O path",
        ["Lane", "Cuts", "Torn tails", "Failures", "Verdict"],
        paper_reference=(
            "§4.2: after power loss at any instant, recovery restores "
            "the newest durable snapshot plus a prefix of the WAL"
        ),
    )
    small = scale.name == "test"
    all_ok = True
    for torn in ("prefix", "shuffle"):
        cfg = CrashMatrixConfig(
            ops=24 if small else 48,
            max_cuts=24 if small else 64,
            torn=torn,
            sanitize=scale.sanitize,
        )
        report = run_crash_matrix(cfg)
        s = report.summary()
        all_ok = all_ok and report.ok
        result.add_row(
            f"power-cut ({torn})", int(s["cuts"]), int(s["torn_tails"]),
            int(s["failures"]), "ok" if report.ok else "FAIL",
        )
        result.telemetry[f"matrix_{torn}"] = s
    lane = run_error_lane(CrashMatrixConfig(
        ops=24 if small else 48, sanitize=scale.sanitize,
    ))
    result.add_row(
        "nvme-errors", int(lane.errors_injected + lane.timeouts_injected),
        0, int(lane.giveups), "ok" if lane.ok else "FAIL",
    )
    result.check("every power cut recovers to an acked prefix", all_ok)
    result.check("injected errors are retried, none give up",
                 lane.retries > 0 and lane.giveups == 0)
    result.check("no acked write lost under transient errors",
                 lane.final_state_ok and lane.recovered_state_ok)
    return result


# --------------------------------------------------------------------------
# Open loop — latency vs offered load through the repro.net front end
# --------------------------------------------------------------------------

#: offered-load sweep (groups/s).  The service rate with the bench CPU
#: costs (14us SET / 7us GET) puts capacity near 85k/s, so the sweep
#: crosses saturation between the 4th and 5th point.
_OPENLOOP_RATES = (12_000, 25_000, 45_000, 70_000, 100_000, 140_000)
_OPENLOOP_CLIENTS = 32
#: schedule duration = ycsb_ops / this (keeps arrival counts, and thus
#: runtime, proportional to the scale)
_OPENLOOP_SCHED_RATE = 400_000
_OPENLOOP_CONTRAST_RATE = 45_000   # sub-saturation contrast rows
_OPENLOOP_OVERLOAD_RATE = 140_000  # backpressure-policy contrast rows


def _openloop_run(scale: Scale, rate: float, *, policy="block",
                  arrivals=None, mix=None, slow_every: int = 0,
                  pipeline: int = 8, trace: bool = False):
    """One offered-load point on a fresh SlimIO system.

    Returns ``(point, fe, tracer)``.  ``arrivals`` is a factory
    ``(rate, duration) -> ArrivalProcess`` so bursty processes can size
    their dwell times off the schedule length."""
    from repro.net import (
        BackpressurePolicy,
        MIXES,
        NetConfig,
        NetFrontend,
        OpStream,
        PoissonArrivals,
        run_open_loop,
        summarize_point,
    )
    from repro.obs.wiring import attach_tracer

    def drive(system):
        _fill(system, scale.ycsb_keys, scale.ycsb_value)
        system.server.reset_metrics()
        # attached after the fill, so only open-loop requests are traced
        tracer = (attach_tracer(system, sample_every=4, keep_slowest=64)
                  if trace else None)
        duration = scale.ycsb_ops / _OPENLOOP_SCHED_RATE
        env = system.env
        fe = NetFrontend(env, system.server,
                         NetConfig(pipeline_depth=pipeline, conn_queue=16,
                                   max_inflight=256,
                                   policy=BackpressurePolicy(policy),
                                   slow_every=slow_every),
                         rtrace=tracer)
        proc = (arrivals(rate, duration) if arrivals is not None
                else PoissonArrivals(rate, seed=17))
        times = proc.times(duration, t0=env.now)
        stream = OpStream(mix or MIXES["ycsb_a"], len(times),
                          scale.ycsb_keys, value_size=scale.ycsb_value,
                          seed=11)
        run_open_loop(env, fe, stream, times, clients=_OPENLOOP_CLIENTS,
                      horizon=duration * 1.5 + 0.01,
                      servers=[system.server], snapshot_at=duration * 0.35,
                      conn_lifetime=200)
        point = summarize_point(fe, rate, len(times), duration,
                                system.server.metrics.snapshot_windows)
        return point, fe, tracer

    return _cell(build_slimio, scale.system_config(
        gc_pressure=False, trigger=False), drive)[1]


def openloop(scale: Scale = BENCH_SCALE) -> ExperimentResult:
    """Latency vs offered load through the simulated connection path.

    The open-loop sweep the paper's aggregate RPS tables cannot show:
    requests arrive on a fixed Poisson schedule whether or not the
    server keeps up, latency is measured from the *intended* arrival
    (no coordinated omission), and the curve crosses the saturation
    knee — flat service-dominated percentiles on the left, unbounded
    queue-dominated percentiles on the right.  Each point splits its
    p999 into WAL-only vs WAL&Snapshot completions via an on-demand
    snapshot mid-run.  Contrast rows show what the sweep's BLOCK
    backpressure hides: MMPP burstiness inflates the tail at an
    unchanged mean rate, SHED trades ``-BUSY`` errors for a bounded
    tail at overload, DROP trades whole connections.
    """
    from repro.net import MIXES, MmppArrivals, curve_csv, detect_knee
    from repro.obs.trace import write_trace_jsonl

    result = ExperimentResult(
        "Open Loop",
        "Offered-load sweep through repro.net: p50/p99/p999 vs load, "
        "saturation knee, backpressure contrast",
        ["Scenario", "Offered/s", "Arrivals", "Done", "p50 (us)",
         "p99 (us)", "p999 (us)", "p999 wal (us)", "p999 snap (us)",
         "Shed", "Dropped"],
        paper_reference=(
            "§2.2 frames degradation as RPS loss under snapshots; an "
            "open-loop front end shows the same system as a latency "
            "curve: where the knee sits, and what admission control "
            "does to the tail past it."
        ),
    )

    def _row(label: str, p) -> None:
        result.add_row(
            label, int(p.offered), p.arrivals, p.completed,
            p.p50 * 1e6, p.p99 * 1e6, p.p999 * 1e6,
            p.p999_wal_only * 1e6, p.p999_wal_snapshot * 1e6,
            p.shed, p.dropped_cmds,
        )

    # -- the sweep (BLOCK policy: pure queueing, nothing rejected) -----
    sweep = []
    for rate in _OPENLOOP_RATES:
        point, _, _ = _openloop_run(scale, rate)
        sweep.append(point)
        _row(f"poisson @{rate // 1000}k", point)
    knee = detect_knee(sweep)

    # -- contrast rows -------------------------------------------------
    def _mmpp(rate, duration):
        return MmppArrivals(rate, burst=6.0, dwell_calm=duration / 8,
                            dwell_burst=duration / 32, seed=17)

    mid, over = _OPENLOOP_CONTRAST_RATE, _OPENLOOP_OVERLOAD_RATE
    contrast = []
    for label, rate, kw in (
        ("mmpp burst @45k", mid, dict(arrivals=_mmpp)),
        ("ycsb_b @45k", mid, dict(mix=MIXES["ycsb_b"])),
        ("slow clients @45k", mid, dict(slow_every=8)),
        # deep client pipelines (32 clients x 32) overrun the 256-command
        # admission window, so the server-side policy — not the client
        # window — is what absorbs the overload
        ("block deep @140k", over, dict(pipeline=32)),
        ("shed deep @140k", over, dict(policy="shed", pipeline=32)),
        ("drop deep @140k", over, dict(policy="drop", pipeline=32)),
    ):
        point, _, _ = _openloop_run(scale, rate, **kw)
        contrast.append(point)
        _row(label, point)
    mmpp_pt, ycsb_b_pt, slow_pt, block_pt, shed_pt, drop_pt = contrast

    # -- one traced point at the knee: queue residency as net spans ----
    traced_rate = knee if knee is not None else _OPENLOOP_RATES[-2]
    traced_pt, _, tracer = _openloop_run(scale, traced_rate, trace=True)
    net_spans = sum(
        1 for ctx in tracer.kept.values() for s in ctx.spans
        if s.layer == "net")
    queue_spans = sum(
        1 for ctx in tracer.kept.values() for s in ctx.spans
        if s.name in ("conn_queue", "client_backlog"))

    base = sweep[_OPENLOOP_RATES.index(mid)]
    low, top = sweep[0], sweep[-1]
    result.check(
        "low load: every arrival completes",
        low.completed == low.issued and low.completed >= low.arrivals,
    )
    result.check(
        "saturation knee detected inside the sweep",
        knee is not None and _OPENLOOP_RATES[0] < knee
        <= _OPENLOOP_RATES[-1],
    )
    result.check(
        "past the knee p999 is queue-dominated (>10x the flat floor)",
        top.p999 > 10.0 * low.p999,
    )
    result.check(
        "overload fills the admission window (BLOCK)",
        top.peak_inflight >= 0.9 * 256,
    )
    result.check(
        "snapshot phase visible: in-snapshot completions recorded",
        base.completed_wal_snapshot > 0 and base.completed_wal_only > 0,
    )
    result.check(
        "WAL&Snapshot p999 >= WAL-only p999 at mid load",
        base.p999_wal_snapshot >= base.p999_wal_only,
    )
    result.check(
        "MMPP bursts inflate p999 at an unchanged mean rate",
        mmpp_pt.p999 > 2.0 * base.p999,
    )
    result.check(
        "read-heavy ycsb_b runs a lower median than ycsb_a",
        ycsb_b_pt.p50 < base.p50,
    )
    # a slow client drains replies at 5% bandwidth, so its ops carry at
    # least the reply-serialization time — a floor fast clients never see
    slow_floor = scale.ycsb_value / (100e6 * 0.05)
    result.check(
        "slow clients stretch their own tail, not the median",
        slow_pt.p99 > slow_floor > base.p99
        and slow_pt.p50 < 2.0 * base.p50,
    )
    result.check(
        "shed at overload: -BUSY errors, bounded queues, bounded tail",
        shed_pt.shed > 0 and shed_pt.max_conn_queue <= 16
        and shed_pt.peak_inflight <= 256 and shed_pt.p999 < block_pt.p999,
    )
    result.check(
        "drop at overload: connections closed, queue bound holds",
        drop_pt.dropped_conns > 0 and drop_pt.max_conn_queue <= 16,
    )
    result.check(
        "queue residency traced as net-layer spans at the knee",
        net_spans >= 1 and queue_spans >= 1,
    )

    result.telemetry["sweep"] = {
        "knee_offered_per_s": float(knee or 0.0),
        "p999_floor_us": float(min(p.p999 for p in sweep) * 1e6),
        "p999_top_us": float(top.p999 * 1e6),
        "goodput_top_per_s": float(top.goodput),
        "peak_inflight_top": float(top.peak_inflight),
    }
    result.telemetry["policies"] = {
        "shed_count": float(shed_pt.shed),
        "shed_p999_us": float(shed_pt.p999 * 1e6),
        "drop_conns": float(drop_pt.dropped_conns),
        "drop_cmds": float(drop_pt.dropped_cmds),
        "block_p999_us": float(block_pt.p999 * 1e6),
    }
    result.telemetry["traced"] = {
        "offered_per_s": float(traced_rate),
        "requests_seen": float(tracer.requests_seen),
        "kept_traces": float(len(tracer.kept)),
        "net_spans": float(net_spans),
        "queue_spans": float(queue_spans),
    }
    result.notes = (
        f"knee at {knee:,.0f} groups/s (p999 floor "
        f"{min(p.p999 for p in sweep) * 1e6:.1f}us); latency measured "
        "from intended arrival — queueing delay included, no "
        "coordinated omission." if knee is not None else
        "sweep never crossed saturation (no knee)"
    )
    out_dir = _export_dir("SLIMIO_NET_DIR")
    if out_dir:  # the net-smoke CI artifact: the curve and the traces
        with open(os.path.join(out_dir, "openloop_curve.csv"), "w") as f:
            f.write(curve_csv(sweep + contrast + [traced_pt]))
        write_trace_jsonl(os.path.join(out_dir, "openloop.trace.jsonl"),
                          tracer, run="openloop")
    return result


# --------------------------------------------------------------------------
# Design-space sweep grids — parameterized runners for repro.bench.sweep
# --------------------------------------------------------------------------
#
# The paper reports point estimates (one RU size, one placement policy,
# one GC watermark); these grids map the neighborhoods around them.
# Every runner is a module-level function of one ``params`` dict (plus
# a scale name bound via functools.partial) so it pickles into the
# ``--jobs`` process pool, and every runner returns plain floats so
# rows cache, CSV, and render deterministically.

def _sweep_row(rps: float, set_p999: float, waf: float, writes,
               **extra) -> dict:
    """One grid point's measurement dict (plain floats, fixed order).

    Its ``score``, the sweep report's ranking (higher = better), is
    throughput per unit of device wear, discounted by tail latency:
    ``rps / (waf^2 * (1 + p999_ms))``. WAF enters squared because
    write amplification costs both bandwidth *and* device lifetime;
    the tail enters as a soft penalty in milliseconds so microsecond
    noise cannot dominate a real throughput difference.
    """
    p999_us = set_p999 * 1e6
    return {
        "rps": rps,
        "p999_us": p999_us,
        "waf": waf,
        "waf_excess": waf - 1.0,
        "gc_copied": float(writes.copied),
        "erases": float(writes.erased),
        **extra,
        "score": rps / (waf * waf * (1.0 + p999_us / 1e3)),
    }


def single_sweep_config(scale: Scale, params: dict):
    """One single-instance SlimIO config from a grid point.

    Axes: ``ru_pages`` (pages per block — the Reclaim Unit size knob),
    ``gc_stop_segments`` (the pinned FTL's GC watermark; the trigger
    stays at 3 so the axis moves only how far past it GC reclaims),
    ``wal_policy``, and ``value_size`` (consumed by the workload, not
    the config).
    """
    geometry = FlashGeometry.scaled(
        mb=scale.small_device_mb, channels=scale.channels,
        dies_per_channel=scale.dies_per_channel,
        pages_per_block=int(params["ru_pages"]),
    )
    return scale.system_config(
        gc_pressure=True, policy=LoggingPolicy(params["wal_policy"]),
        geometry=geometry,
        ftl=_pinned_ftl(int(params["gc_stop_segments"])))


def single_sweep_point(params: dict, scale_name: str = "tiny") -> dict:
    """Measure one single-instance grid point (picklable work unit)."""
    scale = get_scale(scale_name)
    system, rep = _cell(
        build_slimio, single_sweep_config(scale, params),
        scale.redis_bench(value_size=int(params["value_size"]),
                          snapshot_at_fraction=0.5),
        warmup_ops=scale.warmup_ops)
    return _sweep_row(rep.rps, rep.set_p999, rep.waf,
                      system.device.ftl.lifetime,
                      snap_ms=rep.mean_snapshot_time * 1e3)


def cluster_sweep_config(scale: Scale, params: dict):
    """One multi-tenant cluster config from a grid point: the cluster
    experiment's pinned 22 MB / 8-PID device
    (:func:`pinned_cluster_config`) with the grid moving the Reclaim
    Unit size (``ru_pages``), the PID sharing policy, the GC stop
    watermark, the WAL policy, and the tenant count. ``dedicated`` at
    shard counts that don't fit 8 PIDs is *infeasible by design* —
    those corners come back as error rows, mapping the feasible
    region's boundary.
    """
    from repro.cluster.pids import SharingMode

    return pinned_cluster_config(
        scale, int(params["shards"]),
        sharing=SharingMode(params["pid_policy"]),
        policy=LoggingPolicy(params["wal_policy"]),
        ru_pages=int(params["ru_pages"]),
        gc_stop_segments=int(params["gc_stop_segments"]),
    )


def cluster_sweep_point(params: dict, scale_name: str = "tiny") -> dict:
    """Measure one cluster grid point (picklable work unit) — the
    cluster experiment's run at the point's coordinates."""
    scale = get_scale(scale_name)
    cl, rep, _ = _pinned_run(scale, cluster_sweep_config(scale, params),
                             value_size=int(params["value_size"]))
    return _sweep_row(rep.aggregate.rps, rep.aggregate.set_p999,
                      max(rep.shard_waf), cl.device.ftl.lifetime,
                      pid_mode=rep.pid_allocation.get("mode", "-"))


def sweep_grids(scale_name: str = "tiny") -> dict:
    """The named design-space grids at one scale (``python -m
    repro.bench sweep`` runs all of them by default). Axis *order*
    matters: knife-edge adjacency follows it.
    """
    from repro.bench.sweep import EdgeSpec, GridSpec

    edges = (
        EdgeSpec("gc_copied", factor=2.0, min_jump=64.0),
        EdgeSpec("waf_excess", factor=2.0, min_jump=0.02),
        EdgeSpec("p999_us", factor=2.0, min_jump=100.0),
    )
    single = GridSpec(
        name="single",
        description=(
            "single-instance SlimIO: Reclaim Unit size x GC watermark "
            "x WAL policy x value size (redis-benchmark, GC pressure)"
        ),
        axes={
            "ru_pages": (4, 8),
            "gc_stop_segments": (5, 6),
            "wal_policy": ("periodical", "always"),
            "value_size": (1024, 4096),
        },
        runner=functools.partial(single_sweep_point,
                                 scale_name=scale_name),
        edges=edges,
        panels=(
            ("gc_stop_segments", "ru_pages", "waf"),
            ("value_size", "wal_policy", "rps"),
        ),
    )
    cluster_grid = GridSpec(
        name="cluster",
        description=(
            "multi-tenant SlimIO on the pinned 22 MB / 8-PID device: "
            "RU size x PID policy x GC watermark x WAL policy x shard "
            "count x value size (YCSB-A)"
        ),
        axes={
            "ru_pages": (4, 8),
            "pid_policy": ("dedicated", "collapse", "share-wal"),
            "gc_stop_segments": (5, 6),
            "wal_policy": ("periodical", "always"),
            "shards": (2, 4),
            "value_size": (1024, 4096),
        },
        runner=functools.partial(cluster_sweep_point,
                                 scale_name=scale_name),
        edges=edges,
        panels=(
            ("gc_stop_segments", "pid_policy", "waf"),
            ("shards", "pid_policy", "rps"),
            ("value_size", "ru_pages", "gc_copied"),
        ),
    )
    return {"single": single, "cluster": cluster_grid}


EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "figure2a": figure2a,
    "figure2b": figure2b,
    "figure4": figure4,
    "figure5": figure5,
    "cluster": cluster,
    "tailtrace": tailtrace,
    "crashmatrix": crashmatrix,
    "openloop": openloop,
}
