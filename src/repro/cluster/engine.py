"""Cluster builders: N shards on one device, one simulated clock.

One :class:`~repro.nvme.NvmeDevice` is split into per-shard LBA
partitions (:func:`repro.nvme.partition_evenly`); every shard gets a
full SlimIO (or baseline) stack over its partition. Because the FTL —
streams, Reclaim Units, GC — is shared, cross-shard interference is
physical, not assumed: two shards whose PIDs collide really do mix
lifetimes in one RU, and per-shard WAF read off the per-stream FTL
counters shows it.

PID budgeting is delegated to :class:`repro.cluster.pids.PidAllocator`
(dedicated 4-PID policies while they last, then the configured sharing
mode). Each shard's policy is validated against the shared device at
build time, so an oversubscription bug fails loudly instead of
silently landing writes in stream 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

from repro.cluster.pids import PidAllocator, SharingMode
from repro.cluster.router import ClusterRouter
from repro.cluster.slots import HashSlotMap
from repro.core.engine import (
    BaselineSystem,
    SlimIOSystem,
    SystemConfig,
)
from repro.core.placement import PlacementPolicy
from repro.nvme import LbaPartition, NvmeDevice, partition_evenly, release_when_freed
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment

__all__ = ["ClusterConfig", "ShardHandle", "SlimIOCluster", "build_cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up a cluster on one device."""

    num_shards: int = 4
    design: str = "slimio"  # "slimio" | "baseline"
    #: PID count of the shared device (the paper's device exposes 8)
    num_pids: int = 8
    #: fallback when dedicated PIDs run out; ``None`` = pick the
    #: least-sharing mode that fits (see ``PidAllocator.auto_mode``)
    sharing: SharingMode | None = None
    #: per-shard stack template; ``geometry`` sizes the *whole* shared
    #: device, ``placement`` is overridden by the PID allocator
    system: SystemConfig = field(default_factory=SystemConfig)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.design not in ("slimio", "baseline"):
            raise ValueError("design must be slimio or baseline")


@dataclass
class ShardHandle:
    """One shard: its stack, its LBA partition, its PID policy."""

    index: int
    name: str
    system: SlimIOSystem | BaselineSystem
    partition: LbaPartition
    #: None for baseline shards (conventional device, no PIDs)
    policy: PlacementPolicy | None

    @property
    def server(self):
        return self.system.server


class SlimIOCluster:
    """N shard stacks over one shared device, plus the slot map.

    Despite the name this also hosts the baseline design (stock Redis
    shards over the kernel path on the same shared conventional
    device) so scaling comparisons hold everything but the I/O path
    constant.
    """

    #: optional request tracer (``None`` = tracing disabled)
    rtrace = None
    _finalizer: weakref.finalize | None = None

    def __init__(self, env: Environment, config: ClusterConfig):
        self.env = env
        self.config = config
        slimio = config.design == "slimio"
        cfg = config.system
        #: one registry, one view per shard: every shard-side instrument
        #: and span carries a ``shard=`` label; the shared FTL books
        #: unlabeled (its GC belongs to the device, not to any tenant)
        self.obs = MetricsRegistry(env, name=f"cluster-{config.design}")
        self.device = NvmeDevice(
            env, cfg.geometry, cfg.nand, cfg.ftl,
            fdp=slimio and cfg.fdp,
            num_pids=config.num_pids,
            obs=self.obs,
        )
        partitions = partition_evenly(self.device, config.num_shards)
        self.allocator: PidAllocator | None = None
        policies: list[PlacementPolicy | None] = [None] * config.num_shards
        if slimio:
            mode = config.sharing or PidAllocator.auto_mode(
                config.num_pids, config.num_shards
            )
            self.allocator = PidAllocator(config.num_pids, mode=mode)
            policies = list(self.allocator.allocate(config.num_shards))
        self.shards: list[ShardHandle] = []
        for i, part in enumerate(partitions):
            name = f"shard{i}"
            view = self.obs.labeled(shard=name)
            if slimio:
                shard_cfg = replace(cfg, placement=policies[i])
                system = SlimIOSystem(env, shard_cfg, device=part, name=name,
                                      obs=view)
            else:
                system = BaselineSystem(env, cfg, device=part, name=name,
                                        obs=view)
            self.shards.append(
                ShardHandle(i, name, system, part, policies[i])
            )
        self.slot_map = HashSlotMap(config.num_shards)
        self.router = ClusterRouter(self.shards, self.slot_map)

    # ------------------------------------------------------------ shards
    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __getitem__(self, index: int) -> ShardHandle:
        return self.shards[index]

    # what a closed-loop driver needs of a deployment (same three
    # members as a single system)
    @property
    def servers(self) -> list:
        return [s.server for s in self.shards]

    def execute(self, op):
        return self.router.execute(op)

    def server_for_key(self, key):
        return self.router.shard_for_key(key).server

    # ------------------------------------------------------------ accounting
    @property
    def waf(self) -> float:
        return self.device.waf

    def pid_report(self) -> dict:
        """The PID allocation summary (empty for baseline clusters)."""
        if self.allocator is None:
            return {}
        return self.allocator.describe(self.config.num_shards)

    # ------------------------------------------------------------ telemetry
    def attach_tracer(self, tracer=None, **tracer_kw):
        """One shared request tracer across every shard (traces carry
        the shard name as tenant) plus the shared FTL, so a slow
        request on one shard can be blamed on GC provoked by another.
        Returns the tracer."""
        from repro.obs.trace import RequestTracer
        from repro.obs.wiring import attach_tracer

        if tracer is None:
            tracer = RequestTracer(self.env, **tracer_kw)
        self.rtrace = tracer
        self.obs.tracer = tracer
        for shard in self.shards:
            attach_tracer(shard.system, tracer, include_device=False,
                          tenant=shard.name)
        self.device.ftl.rtrace = tracer
        return tracer

    def stream_owners(self) -> dict[int, set]:
        """stream id (= FDP PID) -> names of the shards that write it;
        the ownership map cross-tenant blame is judged against."""
        owners: dict[int, set] = {}
        for shard in self.shards:
            if shard.policy is None:
                owners.setdefault(0, set()).add(shard.name)
                continue
            for pid in shard.policy.pids:
                owners.setdefault(pid, set()).add(shard.name)
        return owners

    def stop(self) -> None:
        """Stop every shard. From now on the shared device's page map
        goes when this handle does (as each single system's does)."""
        for shard in self.shards:
            shard.system.stop()
        if self._finalizer is None:
            self._finalizer = release_when_freed(self, self.device._data)


def build_cluster(env: Environment | None = None,
                  config: ClusterConfig | None = None,
                  **overrides) -> SlimIOCluster:
    """Stand up a cluster; ``overrides`` patch :class:`ClusterConfig`."""
    cfg = config or ClusterConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return SlimIOCluster(env or Environment(), cfg)
