"""Every metric slimbench reports: name, clock, unit, direction, bound.

``clock`` is ``sim`` (deterministic for a seed: must repeat bit for
bit) or ``host`` (CPU seconds / memory of this process: noisy).
``bound`` is the share of the parent's median by which a metric may get
worse before a change counts as a regression.

``COMMON`` metrics are produced by all four workloads; they are the
``end_to_end`` list of the repo-root ``BENCHMARK.json``, which requires
every listed metric from every workload, never 0. ``SPECIFIC`` metrics
exist only where they mean something (``WORKLOAD_METRICS``); slimbench
prints and compares them itself. Per-layer metrics carry no bound.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Metric", "COMMON", "SPECIFIC", "END_TO_END", "WORKLOAD_METRICS",
           "PER_LAYER", "BY_NAME"]


class Metric(NamedTuple):
    name: str
    clock: str      # "sim" | "host"
    unit: str
    better: str     # "lower" | "higher"
    bound: float | None
    what: str


COMMON = [
    Metric("setup_s", "host", "s", "lower", 0.25,
           "CPU s before the measured phase: imports once, then per "
           "replication input generation, system build, preload/fill, "
           "warm-up ops (median over replications); reference-speed s"),
    Metric("host_cpu_s", "host", "s", "lower", 0.15,
           "CPU s of the measured phase of one replication, best of N; "
           "reference-speed s (refkernel.py)"),
    Metric("host_peak_rss_mb", "host", "MB", "lower", 0.05,
           "ru_maxrss of the workload subprocess"),
    Metric("slimio_waf", "sim", "ratio", "lower", 0.005,
           "(host + GC pages programmed) / host pages"),
    Metric("slimio_snapshot_s", "sim", "s", "lower", 0.02,
           "mean duration of the snapshots that finished in the window"),
    Metric("slimio_recovery_mbps", "sim", "MB/s", "higher", 0.05,
           "recovered keyspace bytes / simulated recovery s, cold caches"),
]

SPECIFIC = [
    Metric("slimio_rps", "sim", "1/s", "higher", 0.01,
           "completed requests / simulated s over the measured windows"),
    Metric("slimio_set_p50_us", "sim", "us", "lower", 0.01,
           "SET latency median"),
    Metric("slimio_set_p999_us", "sim", "us", "lower", 0.01,
           "SET latency p99.9 (>= 10 samples beyond it)"),
    Metric("slimio_get_p999_us", "sim", "us", "lower", 0.01,
           "GET latency p99.9 (>= 10 samples beyond it)"),
    Metric("rps_gain_pct", "sim", "%", "higher", 0.5,
           "100 * (slimio_rps / baseline rps - 1); bound in points"),
    Metric("set_p999_cut_pct", "sim", "%", "higher", 0.5,
           "100 * (1 - SlimIO / baseline SET p99.9); bound in points"),
    Metric("fidelity_err_pct", "sim", "%", "lower", 0.5,
           "mean |measured - paper| / |paper| over the paper's relative "
           "claims this workload reproduces; bound in points"),
    Metric("slo_max_rate", "sim", "1/s", "higher", 0.0,
           "highest fixed offered rate whose p99.9 from intended start "
           "meets the frozen limit with zero backlog at the horizon"),
    Metric("ops_failed", "sim", "count", "lower", 0.0,
           "error replies, refused/shed/dropped/unfinished commands, "
           "verification mismatches; printed against ops_attempted"),
]

END_TO_END = COMMON + SPECIFIC

_REQUESTS = ["slimio_rps", "slimio_set_p50_us", "slimio_set_p999_us"]
_VS_BASELINE = ["rps_gain_pct", "set_p999_cut_pct", "fidelity_err_pct"]

#: which SPECIFIC metrics each workload produces (COMMON: all of them)
WORKLOAD_METRICS = {
    "redis_set_gc": [*_REQUESTS, *_VS_BASELINE, "ops_failed"],
    "ycsb_a_always": [*_REQUESTS, "slimio_get_p999_us", *_VS_BASELINE,
                      "ops_failed"],
    "snap_recover": ["fidelity_err_pct", "ops_failed"],
    "openloop_net": [*_REQUESTS, "slimio_get_p999_us", "slo_max_rate",
                     "ops_failed"],
}


def _layer(prefix: str, rows: str) -> list[tuple[str, str, str]]:
    """``rows``: one ``name unit better`` triple per line."""
    out = []
    for line in rows.strip().splitlines():
        name, unit, better = line.split()
        out.append((f"{prefix}.{name}", unit, better))
    return out


#: (name, unit, better). Source (c)ounters / (t)raced run / (m)icro is
#: documented per name in README.md.
PER_LAYER = (
    _layer("sim", """
        events_dispatched count lower
        events_absorbed count higher
        host_self_s s lower
        host_share_pct % lower
        calls count lower
        host_us_per_event us lower
        micro.timeout_ns ns lower
        micro.resource_handoff_ns ns lower
    """) + _layer("flash", """
        host_pages_written count lower
        gc_pages_copied count lower
        baseline_gc_pages_copied count lower
        segments_erased count lower
        copyfree_erases count higher
        host_stall_s s lower
        die_busy_s s lower
        baseline_waf ratio lower
        nand_self_us_mean us lower
        nand_self_us_p999 us lower
        host_self_s s lower
        calls count lower
        micro.write_burst_pages_per_s 1/s higher
        micro.nand_program_pages_per_s.b1 1/s higher
        micro.nand_program_pages_per_s.b8 1/s higher
        micro.nand_program_pages_per_s.b64 1/s higher
        micro.l2p_map_ns ns lower
    """) + _layer("nvme", """
        write_cmds count lower
        read_cmds count lower
        deallocate_cmds count lower
        self_us_mean us lower
        self_us_p999 us lower
        host_self_s s lower
    """) + _layer("kernel", """
        journal_commits count lower
        journal_pages count lower
        writeback_pages count lower
        throttle_wait_s s lower
        commit_lock_wait_s s lower
        block_cmds count lower
        cpu_s.fs s lower
        ring_submits count lower
        ring_completion_us_mean us lower
        ring_retries count lower
        pagecache_self_us_p999 us lower
        host_self_s s lower
    """) + _layer("persist", """
        wal_flushes count lower
        wal_flush_bytes_mean bytes higher
        wal_group_commits count higher
        wal_backpressure_waits count lower
        snapshot_count count higher
        snapshot_inmem_pct % higher
        snapshot_kernel_pct % lower
        snapshot_ssd_pct % lower
        compress_ratio ratio lower
        recovery_s s lower
        recovery_stale_keys count lower
        wal_self_us_mean us lower
        wal_self_us_p999 us lower
        host_self_s s lower
        micro.aof_encode_mbps MB/s higher
        micro.aof_scan_mbps MB/s higher
        micro.rdb_chunk_mbps MB/s higher
        micro.compress_mbps MB/s higher
        micro.wal_stage_flush_ns ns lower
    """) + _layer("imdb", """
        commands count higher
        wal_buffer_stalls count lower
        peak_resident_mb MB lower
        server_self_us_mean us lower
        server_self_us_p999 us lower
        cpu_queue_us_p999 us lower
        host_self_s s lower
        micro.resp_parse_mbps MB/s higher
        micro.store_set_ns ns lower
        micro.store_get_ns ns lower
    """) + _layer("core", """
        walpath_flush_pages count lower
        walpath_meta_writes count lower
        snapshot_path_pages count lower
        readahead_hit_pct % higher
        readahead_waits count lower
        baseline_rps 1/s higher
        baseline_set_p999_us us lower
        baseline_snapshot_s s lower
        baseline_recovery_mbps MB/s higher
        host_self_s s lower
    """) + _layer("net", """
        issued count higher
        completed count higher
        shed count lower
        dropped_cmds count lower
        refused count lower
        backlog_at_horizon count lower
        peak_inflight count lower
        max_conn_queue count lower
        generator_late_us_max us lower
        p999_us.r1 us lower
        p999_us.r2 us lower
        p999_us.r3 us lower
        p999_us.r4 us lower
        queue_self_us_mean us lower
        queue_self_us_p999 us lower
        host_self_s s lower
    """) + _layer("obs", """
        spans_recorded count lower
        trace_overhead_x x lower
        profile_overhead_x x lower
        host_self_s s lower
    """) + _layer("workloads", """
        host_self_s s lower
    """) + _layer("other", """
        host_self_s s lower
    """)
)

BY_NAME = {m.name: m for m in END_TO_END}
