"""Cluster-aware workload report: one op stream, N shards.

:class:`ClusterWorkload` runs any :class:`ClosedLoopWorkload` shape
(the same knobs, the same pre-drawn sequence, the same driver) against
a cluster, whose ``execute`` goes through the
:class:`~repro.cluster.ClusterRouter`, so the key's hash slot — not the
driver — decides which shard does the work. The report comes back at
two granularities:

* one :class:`WorkloadReport` per shard (that shard's latency samples,
  snapshot windows, memory, and *its own* WAF read off the shared
  FTL's per-stream counters for the shard's Placement IDs);
* one aggregate report (total throughput, cluster-wide percentiles
  merged from every shard's samples, device-global WAF).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.registry import percentile
from repro.workloads.runner import (
    ClosedLoopWorkload,
    WorkloadReport,
    server_report,
)

__all__ = ["ClusterReport", "ClusterWorkload"]


@dataclass
class ClusterReport:
    """Per-shard and aggregate measurements of one cluster run."""

    aggregate: WorkloadReport = field(default_factory=WorkloadReport)
    per_shard: list[WorkloadReport] = field(default_factory=list)
    shard_names: list[str] = field(default_factory=list)
    #: per-shard WAF over the shard's own Placement IDs
    shard_waf: list[float] = field(default_factory=list)
    #: ops the router sent to each shard
    routed: list[int] = field(default_factory=list)
    #: PID allocation summary (``PidAllocator.describe``)
    pid_allocation: dict = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.per_shard)


class ClusterWorkload:
    """Drive a cluster with a closed-loop shape; measure per shard."""

    def __init__(self, shape: ClosedLoopWorkload):
        self.shape = shape

    def run(self, cluster, warmup_ops: int = 0) -> ClusterReport:
        """Drive the cluster to completion and report.

        ``warmup_ops`` are excluded from metrics; the run settles only
        after every shard's snapshots finish.
        """
        ftl = cluster.device.ftl
        writes, routed0 = self.shape.drive(
            cluster, warmup_ops,
            lambda: (ftl.window(), list(cluster.router.routed)),
        )
        out = ClusterReport()
        out.shard_names = [s.name for s in cluster.shards]
        out.pid_allocation = cluster.pid_report()
        out.routed = [n - n0 for n, n0 in zip(cluster.router.routed, routed0)]
        windows = [s.server.metrics for s in cluster.shards]
        for shard, window in zip(cluster.shards, windows):
            rep = server_report(window, shard.server.store)
            # a SlimIO shard is attributed its Placement IDs (shared
            # streams count in full for every sharer); baseline shards
            # all share stream 0 — device-global WAF
            rep.waf = writes.waf(
                shard.policy.pids if shard.policy is not None else None)
            out.per_shard.append(rep)
        out.shard_waf = [r.waf for r in out.per_shard]

        agg = out.aggregate
        agg.ops = sum(r.ops for r in out.per_shard)
        # the cluster's measured span covers every shard's
        spans = [w.span() for w, r in zip(windows, out.per_shard) if r.ops]
        if spans:
            agg.duration = (max(hi for _, hi in spans)
                            - min(lo for lo, _ in spans))
        agg.rps = agg.ops / agg.duration if agg.duration > 0 else 0.0
        # shards serve concurrently: cluster phase throughput is the
        # sum of the per-shard phase rates
        agg.rps_wal_only = sum(r.rps_wal_only for r in out.per_shard)
        agg.rps_wal_snapshot = sum(
            r.rps_wal_snapshot for r in out.per_shard
        )
        set_all = np.concatenate([w.set_latency for w in windows])
        agg.set_p999 = percentile(set_all, 99.9)
        agg.get_p999 = percentile(
            np.concatenate([w.get_latency for w in windows]), 99.9)
        agg.set_mean = float(set_all.mean()) if len(set_all) \
            else float("nan")
        agg.steady_memory = sum(r.steady_memory for r in out.per_shard)
        agg.peak_memory = sum(r.peak_memory for r in out.per_shard)
        agg.snapshot_times = [
            t for r in out.per_shard for t in r.snapshot_times
        ]
        agg.snapshot_count = sum(r.snapshot_count for r in out.per_shard)
        agg.waf = writes.waf()
        agg.gc_pages_copied = writes.copied
        agg.gc_segments_erased = writes.erased
        return out
