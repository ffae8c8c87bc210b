"""Workload generators mirroring the paper's two benchmarks (§5.1).

* :class:`RedisBenchWorkload` — the redis-benchmark shape: SET-only,
  50 concurrent closed-loop clients, 8-byte keys over a large key
  range, 4096-byte values; an On-Demand snapshot at the end of each
  repetition.
* :class:`YcsbAWorkload` — YCSB-A: 50/50 GET/SET over a zipfian key
  distribution, 8 threads, 2048-byte values, records preloaded.

Both are parameterized by a :class:`Scale` so the same shape runs at
paper scale (28 M ops / 26 GB) or laptop scale (thousands of ops /
MBs). Values are deterministically generated per key with a target
compressibility, so snapshots behave like the paper's (compression
does real work but doesn't collapse the data).
"""

from repro.workloads.cluster import ClusterReport, ClusterWorkload
from repro.workloads.keys import (
    UniformKeys,
    ZipfianKeys,
    make_key,
    make_value,
)
from repro.workloads.runner import (
    ClosedLoopWorkload,
    RedisBenchWorkload,
    WorkloadReport,
    YcsbAWorkload,
)

__all__ = [
    "UniformKeys",
    "ZipfianKeys",
    "make_key",
    "make_value",
    "ClosedLoopWorkload",
    "RedisBenchWorkload",
    "YcsbAWorkload",
    "WorkloadReport",
    "ClusterWorkload",
    "ClusterReport",
]
