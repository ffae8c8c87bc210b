"""System builders: the baseline stack and the SlimIO stack.

``build_baseline`` assembles stock Redis on the traditional path:

    clients → Server → WalManager → FileAppendSink → PosixFile
                                   → FileSnapshotSink ┘
    PosixFile → page cache → file system (EXT4/F2FS) → block layer →
    conventional NVMe device

``build_slimio`` assembles the paper's design:

    clients → Server → WalManager → WalPath  (own SQ/CQ, SQPOLL)
                                   → SnapshotPath (own SQ/CQ, SQPOLL)
    both → NVMe passthru → FDP device (PID per lifetime)

Both return a ``System`` handle exposing the server, the device, and a
``recover()`` generator implementing the full §4.2 recovery procedure,
so experiments and applications drive the two designs through one
interface.

A handle is in no reference cycle: no component refers back to it. So
a stopped handle is freed when its last reference goes, and then
releases the page maps it built (its device's, unless the device was
passed in, and the baseline's page cache) at once, with no collection;
see :mod:`repro.nvme.pagemap`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from collections.abc import Generator
from typing import ClassVar

from repro.core.lba import LbaSpaceManager, SlotRole
from repro.core.metadata import MetadataStore
from repro.core.paths import SlimIOSnapshotSource, SnapshotPath, WalPath
from repro.core.placement import PlacementPolicy, validate_placement
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import KVStore, Server, ServerConfig
from repro.kernel import (
    BlockLayer,
    CpuAccount,
    Ext4,
    F2fs,
    PageCache,
    PassthruQueuePair,
)
from repro.nvme import NvmeDevice, PageMap, release_when_freed
from repro.obs.registry import MetricsRegistry
from repro.persist import LoggingPolicy, SnapshotKind, WalManager, recover_store
from repro.persist.file_backends import (
    FileAppendSink,
    FileSnapshotSink,
    FileSnapshotSource,
)
from repro.sim import Environment

__all__ = [
    "SystemConfig",
    "BaselineSystem",
    "SlimIOSystem",
    "build_baseline",
    "build_slimio",
]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to stand up either system."""

    geometry: FlashGeometry = field(
        default_factory=lambda: FlashGeometry.scaled(mb=64)
    )
    nand: NandTiming = field(default_factory=NandTiming)
    ftl: FtlConfig = field(default_factory=FtlConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    policy: LoggingPolicy = LoggingPolicy.PERIODICAL
    wal_flush_interval: float = 1.0
    #: Redis's AOF-buffer hard limit: write queries block above this
    wal_buffer_limit_bytes: int = 32 * 1024 * 1024

    # baseline knobs
    fs: str = "f2fs"  # "ext4" | "f2fs"
    dirty_limit_bytes: int = 8 * 1024 * 1024
    fs_extent_pages: int = 256

    # SlimIO knobs
    sqpoll: bool = True
    fdp: bool = True
    #: ablation: snapshot traffic shares the WAL-Path ring instead of
    #: getting its own SQ/CQ pair (defeats §4.1's write isolation)
    shared_ring: bool = False
    placement: PlacementPolicy = field(default_factory=PlacementPolicy)
    snapshot_fraction: float = 0.45
    recovery_readahead_pages: int = 64
    #: PID (stream) count of the built FDP device; ``None`` = enough
    #: for the placement policy (min 8, the paper's device). Setting
    #: it explicitly makes the build fail fast if the policy does not
    #: fit — see :func:`repro.core.placement.validate_placement`.
    num_pids: int | None = None
    #: run the repro.analysis runtime sanitizers: every write is
    #: validated against the region/PID its origin declared, slot
    #: promotion is guarded, and fork-snapshot races are detected.
    #: Ignored by the baseline (its invariants live in the fs layer).
    sanitize: bool = False

    # constants, not fields: the simulator has one engine path. Read by
    # benchmarks/slimbench/worker.py::provenance, which may not change.
    batched: ClassVar[bool] = True
    fast_sim: ClassVar[bool] = True
    fast_forward: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.num_pids is not None and self.num_pids < 1:
            raise ValueError("num_pids must be >= 1")
        if self.fs not in ("ext4", "f2fs"):
            raise ValueError("fs must be ext4 or f2fs")
        if not self.wal_flush_interval > 0:  # NaN-safe
            raise ValueError("wal_flush_interval must be positive")
        if not 0.0 < self.snapshot_fraction < 1.0:
            raise ValueError("snapshot_fraction must be in (0, 1)")


class _SystemBase:
    """Shared surface of both system handles."""

    env: Environment
    device: NvmeDevice
    server: Server
    config: SystemConfig
    #: the registry every layer of this system books into
    obs: MetricsRegistry
    #: page maps this handle built: released once it is stopped and freed
    _owned: tuple[PageMap, ...] = ()
    _finalizer: weakref.finalize | None = None

    def attach_obs(self) -> MetricsRegistry:
        """The system's registry (every layer is built with it; this
        spelling survives for callers of the old two-phase API)."""
        return self.obs

    @property
    def metrics(self):
        return self.server.metrics

    # what a closed-loop driver needs of a deployment (a single
    # instance is a one-shard one; ``SlimIOCluster`` has the same three)
    @property
    def servers(self) -> list[Server]:
        return [self.server]

    def execute(self, op) -> Generator:
        return self.server.execute(op)

    def server_for_key(self, key: bytes) -> Server:
        return self.server

    @property
    def waf(self) -> float:
        return self.device.waf

    def stop(self) -> None:
        """End of run: stop background activity. From now on the page
        maps this handle built go when the handle does."""
        self.server.stop()
        if self._finalizer is None:
            self._finalizer = release_when_freed(self, *self._owned)


class BaselineSystem(_SystemBase):
    """Stock Redis over the traditional kernel path.

    ``device`` lets multi-tenant deployments (``repro.cluster``) hand
    in a pre-built device or :class:`~repro.nvme.LbaPartition`; when
    None, a private conventional device is built from the config.
    ``obs`` is the registry every layer books into (default: a new one
    named after the system).
    """

    def __init__(self, env: Environment, config: SystemConfig,
                 device=None, name: str = "baseline", obs=None):
        self.env = env
        self.config = config
        self.name = name
        self.obs = obs = obs or MetricsRegistry(env, name=name)
        owned: tuple[PageMap, ...] = ()
        if device is None:
            device = NvmeDevice(env, config.geometry, config.nand,
                                config.ftl, fdp=False, obs=obs)
            owned = (device._data,)
        self.device = device
        self.block = BlockLayer(env, self.device, obs=obs)
        self.cache = PageCache(env, self.block, page_size=self.device.lba_size,
                               dirty_limit_bytes=config.dirty_limit_bytes,
                               obs=obs)
        self._owned = (*owned, self.cache._pages)
        fs_cls = Ext4 if config.fs == "ext4" else F2fs
        self.fs = fs_cls(env, self.block, self.cache,
                         extent_pages=config.fs_extent_pages, obs=obs)
        self.main_account = CpuAccount(env, f"{name}-main")
        self.wal = WalManager(
            env, FileAppendSink(self.fs), self.main_account,
            policy=config.policy, flush_interval=config.wal_flush_interval,
            buffer_limit_bytes=config.wal_buffer_limit_bytes, obs=obs,
        )
        fs = self.fs  # the sink factory must not capture the handle
        self.server = Server(
            env, KVStore(page_size=self.device.lba_size), self.wal,
            lambda kind: FileSnapshotSink(fs, f"{kind.value}.rdb"),
            config.server, name=name, obs=obs,
        )

    def snapshot_source(self, kind: SnapshotKind = SnapshotKind.WAL_TRIGGERED,
                        ) -> FileSnapshotSource:
        return FileSnapshotSource(self.fs, f"{kind.value}.rdb")

    def recover(self, kind: SnapshotKind = SnapshotKind.WAL_TRIGGERED,
                account: CpuAccount | None = None) -> Generator:
        """Full recovery: load the snapshot file, replay the AOF."""
        acct = account or CpuAccount(self.env, "baseline-recovery")
        source = None
        if self.fs.exists(f"{kind.value}.rdb"):
            source = self.snapshot_source(kind)
        result = yield from recover_store(
            self.env, source, self.wal.sink, acct, obs=self.obs,
        )
        return result

    def crash(self) -> None:
        """Power loss: the page cache vanishes; the device persists."""
        self.cache.crash()


@dataclass(eq=False)
class _SnapshotSinks:
    """SlimIO's snapshot-sink factory: each snapshot process gets its
    own SQ/CQ pair (§4.1). It holds the components a sink needs, not
    the system handle, so the server it is handed to does not keep the
    handle alive."""

    env: Environment
    device: object
    config: SystemConfig
    wal_ring: PassthruQueuePair
    space: LbaSpaceManager
    meta_store: MetadataStore
    obs: MetricsRegistry
    #: the latest ring of each snapshot kind
    rings: dict[SnapshotKind, PassthruQueuePair] = field(default_factory=dict)

    def __call__(self, kind: SnapshotKind) -> SnapshotPath:
        if self.config.shared_ring:
            ring = self.wal_ring  # ablation: no write isolation
        else:
            ring = PassthruQueuePair(
                self.env, self.device, sqpoll=self.config.sqpoll,
                name=f"snapshot-path-{kind.value}",
                obs=self.obs,
            )
        self.rings[kind] = ring
        return SnapshotPath(
            self.env, ring, self.space, self.meta_store, kind,
            self.config.placement, obs=self.obs,
        )


class SlimIOSystem(_SystemBase):
    """SlimIO: passthru paths over an FDP (or conventional) device.

    ``device`` lets multi-tenant deployments (``repro.cluster``) hand
    in a pre-built device or :class:`~repro.nvme.LbaPartition` whose
    PID space is shared with other tenants; when None, a private
    device is built from the config. Either way the placement policy
    is validated against the device's PID count at build time — an
    over-range PID would otherwise fall back to stream 0 silently.
    ``obs`` is the registry every layer books into (default: a new one
    named after the system).
    """

    def __init__(self, env: Environment, config: SystemConfig,
                 device=None, name: str = "slimio", obs=None):
        self.env = env
        self.config = config
        self.name = name
        self.obs = obs = obs or MetricsRegistry(env, name=name)
        if device is None:
            num_pids = config.num_pids
            if num_pids is None:
                num_pids = max(8, config.placement.max_pid + 1)
            device = NvmeDevice(
                env, config.geometry, config.nand, config.ftl,
                fdp=config.fdp, num_pids=num_pids, obs=obs,
            )
            self._owned = (device._data,)
        self.device = device
        if self.device.fdp:
            validate_placement(config.placement, self.device.num_pids,
                               context=f"the device backing {name!r}")
        self.sanitizer = None
        if config.sanitize:
            # lazy import: analysis sits above core in the layering
            from repro.analysis.sanitize import SlimIOSanitizer

            self.sanitizer = SlimIOSanitizer(name=name)
            self.device = self.sanitizer.wrap_device(self.device)
        self.space = LbaSpaceManager(
            self.device.num_lbas,
            snapshot_fraction=config.snapshot_fraction,
        )
        if self.sanitizer is not None:
            self.sanitizer.bind(self.space, config.placement)
        self.main_account = CpuAccount(env, f"{name}-main")
        # the WAL-Path ring lives in the main process (§4.1)
        self.wal_ring = PassthruQueuePair(
            env, self.device, sqpoll=config.sqpoll,
            name="wal-path", obs=obs,
        )
        self.meta_store = MetadataStore(
            self.wal_ring, self.space.layout, config.placement.metadata_pid
        )
        self.wal_path = WalPath(
            env, self.wal_ring, self.space, self.meta_store,
            self.main_account, config.placement, obs=obs,
        )
        self.wal = WalManager(
            env, self.wal_path, self.main_account,
            policy=config.policy, flush_interval=config.wal_flush_interval,
            buffer_limit_bytes=config.wal_buffer_limit_bytes, obs=obs,
        )
        self._make_snapshot_sink = _SnapshotSinks(
            env, self.device, config, self.wal_ring, self.space,
            self.meta_store, obs,
        )
        self._snap_rings = self._make_snapshot_sink.rings
        self.server = Server(
            env, KVStore(page_size=self.device.lba_size), self.wal,
            self._make_snapshot_sink, config.server, name=name, obs=obs,
        )
        if self.sanitizer is not None:
            self.sanitizer.watch_server(self.server)

    def snapshot_source(self, kind: SnapshotKind = SnapshotKind.WAL_TRIGGERED,
                        ring: PassthruQueuePair | None = None,
                        ) -> SlimIOSnapshotSource:
        return SlimIOSnapshotSource(
            ring or self.wal_ring, self.space, kind,
            readahead_pages=self.config.recovery_readahead_pages,
            obs=self.obs,
        )

    def recover(self, kind: SnapshotKind = SnapshotKind.WAL_TRIGGERED,
                account: CpuAccount | None = None,
                strict_wal: bool = False) -> Generator:
        """§4.2 recovery: metadata → snapshot slot → WAL replay.

        After replay the WAL region beyond the recovered head is
        TRIMmed: a crash can strand stale retired-generation pages
        (``retire_previous`` interrupted mid-deallocate) or torn-flush
        fragments there, and future appends must land on blank pages.
        ``strict_wal`` escalates interior WAL corruption to an
        exception (see :func:`repro.persist.recover_store`).
        """
        acct = account or CpuAccount(self.env, f"{self.name}-recovery")
        meta = yield from self.meta_store.read(acct)
        if meta is not None:
            self.space.slots.roles = [SlotRole(r) for r in meta.slot_roles]
            self.space.slots.lengths = list(meta.slot_lengths)
            self.space.wal.gen_start = meta.wal_gen_start
            self.space.wal.head = meta.wal_head
            self.space.wal.prev_start = meta.wal_prev_start
            self.wal_path._prev_gen_bytes = meta.wal_prev_bytes
        source = None
        role = SlotRole.for_kind(kind)
        if meta is not None and self.space.slots.slot_of(role) is not None:
            source = self.snapshot_source(kind)
        # Replay the WAL even with no valid metadata: a crash before
        # (or tearing) the first-ever metadata write leaves acknowledged
        # records on flash with both A/B copies blank — the forward
        # scan finds them from the fresh space's vpn 0. On a genuinely
        # blank device this costs one zero-page probe read.
        wal_sink = self.wal_path
        result = yield from recover_store(
            self.env, source, wal_sink, acct, obs=self.obs,
            strict_wal=strict_wal,
        )
        yield from self.wal_path.trim_beyond_head(acct)
        if self.sanitizer is not None:
            self.sanitizer.notify_recovery()
        return result

    def crash(self) -> None:
        """Power loss: passthru has no page cache — user-space staging
        buffers (un-flushed WAL tail) are lost; flash contents persist."""
        self.wal_path._staged.clear()
        self.wal_path._staged_bytes = 0
        self.wal_path._tail = b""
        self.wal_path._tail_vpn = None


def build_baseline(env: Environment | None = None,
                   config: SystemConfig | None = None,
                   **overrides) -> BaselineSystem:
    """Stand up the baseline system (see module docstring).

    ``overrides`` are applied to :class:`SystemConfig` via ``replace``.
    """
    cfg = config or SystemConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return BaselineSystem(env or Environment(), cfg)


def build_slimio(env: Environment | None = None,
                 config: SystemConfig | None = None,
                 **overrides) -> SlimIOSystem:
    """Stand up the SlimIO system (see module docstring)."""
    cfg = config or SystemConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return SlimIOSystem(env or Environment(), cfg)
