"""Scale presets: the paper's setup shrunk to laptop size.

The paper: a 180 GB FEMU FDP SSD (8×8 dies), 26 GB datasets, 28 M ops.
``BENCH_SCALE`` shrinks capacity, dataset, and op counts together by
roughly 1000× while keeping the ratios that drive the phenomena:

* WAL traffic per run is several times the device capacity in the
  GC-pressure scenarios (the paper's redis-benchmark writes ~114 GB
  onto 180 GB with long-lived snapshots resident);
* the WAL-Snapshot trigger fires a few times per run;
* the device has enough die parallelism (8×8 at bench scale, like the
  paper's FEMU device) that the kernel path — not NAND bandwidth — is
  the bottleneck; blocks are smaller so reclaim granularity scales too.

``TEST_SCALE`` is another ~10× smaller for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import SystemConfig
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ServerConfig
from repro.workloads import RedisBenchWorkload, YcsbAWorkload

__all__ = ["Scale", "TINY_SCALE", "TEST_SCALE", "BENCH_SCALE", "PROD_SCALE",
           "SCALES"]

MB = 1024 * 1024


@dataclass(frozen=True)
class Scale:
    """All knobs that shrink together."""

    name: str
    #: device capacity for GC-pressure scenarios (wrapped several times)
    small_device_mb: int
    #: device capacity for no-GC scenarios
    large_device_mb: int
    channels: int
    dies_per_channel: int
    pages_per_block: int
    redis_clients: int
    redis_ops: int
    redis_keys: int
    redis_value: int
    ycsb_clients: int
    ycsb_ops: int
    ycsb_keys: int
    ycsb_value: int
    wal_trigger_bytes: int
    warmup_ops: int
    #: figure-4/5 regime: higher utilization so GC must copy
    gc_heavy_device_mb: int = 24
    gc_heavy_trigger_bytes: int = 3 * 1024 * 1024
    snapshot_chunk_entries: int = 64
    #: run every experiment with the repro.analysis runtime sanitizers
    #: active on SlimIO systems (``python -m repro.bench --sanitize``)
    sanitize: bool = False

    # ------------------------------------------------------------------ configs
    def _geometry(self, mb: int) -> FlashGeometry:
        return FlashGeometry.scaled(
            mb=mb, channels=self.channels,
            dies_per_channel=self.dies_per_channel,
            pages_per_block=self.pages_per_block,
        )

    def _nand(self) -> NandTiming:
        # scaled blocks must scale the erase time too: a real 256-page
        # block erases in 2 ms (~4% of its program time); keeping 2 ms
        # on an 8-page block would make erases 10x more expensive than
        # physics says
        return NandTiming(
            block_erase=2e-3 * self.pages_per_block / 256.0
        )

    def _ftl(self) -> FtlConfig:
        # 20% OP so GC always has headroom even at the transient peak
        # (old WAL gen + new gen growth + three snapshot images live)
        return FtlConfig(op_ratio=0.20, gc_trigger_segments=5,
                         gc_stop_segments=10, gc_reserve_segments=2)

    def system_config(self, gc_pressure: bool, trigger: bool = True,
                      **overrides) -> SystemConfig:
        mb = self.small_device_mb if gc_pressure else self.large_device_mb
        server = ServerConfig(
            # calibrated near the paper's ~57-75k rps service rate
            set_cpu=14e-6,
            get_cpu=7e-6,
            wal_snapshot_trigger_bytes=(
                self.wal_trigger_bytes if trigger else None
            ),
            snapshot_chunk_entries=self.snapshot_chunk_entries,
        )
        cfg = SystemConfig(
            snapshot_fraction=0.30,
            geometry=self._geometry(mb),
            nand=self._nand(),
            ftl=self._ftl(),
            server=server,
            # "everysec" scaled: runs are ~1000x shorter than the paper's
            wal_flush_interval=0.002,
            dirty_limit_bytes=max(4 * MB, mb * MB // 4),
            wal_buffer_limit_bytes=4 * MB,
            fs_extent_pages=64,
            sanitize=self.sanitize,
        )
        if overrides:
            cfg = replace(cfg, **overrides)
        return cfg

    # ------------------------------------------------------------------ workloads
    def redis_bench(self, **kw) -> RedisBenchWorkload:
        args = dict(clients=self.redis_clients, total_ops=self.redis_ops,
                    key_count=self.redis_keys, value_size=self.redis_value)
        args.update(kw)
        return RedisBenchWorkload(**args)

    def ycsb_a(self, **kw) -> YcsbAWorkload:
        args = dict(clients=self.ycsb_clients, total_ops=self.ycsb_ops,
                    key_count=self.ycsb_keys, value_size=self.ycsb_value)
        args.update(kw)
        return YcsbAWorkload(**args)


#: ``TINY_SCALE`` exists for design-space sweeps (``python -m
#: repro.bench sweep``): a comprehensive grid runs ~100 systems per
#: sweep, so each point must finish in well under a second while still
#: generating enough write volume to wrap the sweep's pinned devices
#: into the GC regime where the interesting cliffs live.
TINY_SCALE = Scale(
    name="tiny",
    small_device_mb=24,
    large_device_mb=64,
    channels=4,
    dies_per_channel=8,
    pages_per_block=8,
    redis_clients=8,
    redis_ops=6_000,
    redis_keys=300,
    redis_value=4096,
    ycsb_clients=8,
    ycsb_ops=8_000,
    ycsb_keys=600,
    ycsb_value=2048,
    wal_trigger_bytes=3 * MB,
    warmup_ops=1_000,
    gc_heavy_device_mb=22,
    gc_heavy_trigger_bytes=2 * MB,
    snapshot_chunk_entries=32,
)

TEST_SCALE = Scale(
    name="test",
    small_device_mb=32,
    large_device_mb=96,
    channels=4,
    dies_per_channel=8,
    pages_per_block=8,
    redis_clients=16,
    redis_ops=16_000,
    redis_keys=400,
    redis_value=4096,
    ycsb_clients=8,
    ycsb_ops=10_000,
    ycsb_keys=800,
    ycsb_value=2048,
    wal_trigger_bytes=5 * MB,
    warmup_ops=2_000,
    gc_heavy_device_mb=24,
    gc_heavy_trigger_bytes=3 * MB,
    snapshot_chunk_entries=32,
)

BENCH_SCALE = Scale(
    name="bench",
    small_device_mb=64,
    large_device_mb=256,
    channels=8,
    dies_per_channel=8,
    pages_per_block=8,
    redis_clients=50,
    redis_ops=16_000,
    redis_keys=1_200,
    redis_value=4096,
    ycsb_clients=8,
    ycsb_ops=16_000,
    ycsb_keys=3_000,
    ycsb_value=2048,
    wal_trigger_bytes=10 * MB,
    warmup_ops=3_000,
    gc_heavy_device_mb=64,
    gc_heavy_trigger_bytes=6 * MB,
)


#: ``PROD_SCALE`` pushes toward the paper's scale along the axes the
#: lightweight-path phenomena care about: 4x the operation counts and
#: a 50% larger device, so runs spend long stretches in the steady
#: periodic-flush regime where quiescence fast-forward and the
#: array-backed hot state pay off. Still laptop-sized: a full
#: suite completes in minutes, not hours.
PROD_SCALE = Scale(
    name="prod",
    small_device_mb=96,
    large_device_mb=384,
    channels=8,
    dies_per_channel=8,
    pages_per_block=8,
    redis_clients=50,
    redis_ops=64_000,
    redis_keys=2_400,
    redis_value=4096,
    ycsb_clients=16,
    ycsb_ops=64_000,
    ycsb_keys=6_000,
    ycsb_value=2048,
    wal_trigger_bytes=20 * MB,
    warmup_ops=6_000,
    gc_heavy_device_mb=96,
    gc_heavy_trigger_bytes=10 * MB,
)


#: every preset by name: the ``--scale`` choices of the bench CLIs
SCALES = {"tiny": TINY_SCALE, "test": TEST_SCALE, "bench": BENCH_SCALE,
          "prod": PROD_SCALE}


def get_scale(name: str) -> Scale:
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")
    return SCALES[name]
