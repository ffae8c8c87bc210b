"""The IMDB server: single-threaded query loop + persistence hooks.

Faithful to Redis's execution model:

* one CPU services commands in arrival order (clients queue on it);
* a SET appends to the WAL *inside* the command path — under
  Always-Log it stays there until the record is durable, under
  Periodical-Log it returns once buffered;
* a snapshot forks a child (stalling the parent for the page-table
  copy), the child serializes/compresses/writes the fork-point
  dataset through its own sink, and parent writes to still-shared
  pages pay the CoW fault + copy;
* a WAL-Snapshot fires automatically when the WAL reaches the trigger
  size; the WAL rotates (old generation retired) only after that
  snapshot is durable. On-Demand snapshots are started explicitly.
  At most one snapshot runs at a time (paper §2.1).

Metrics: each request's completion instant and latency are booked once,
in the registry (``server_command_latency_seconds{op}``);
:class:`ServerMetrics` is a window over those series plus the snapshot
windows (so analysis can split WAL-only vs WAL&Snapshot phases) and the
peak memory footprint including CoW growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Generator

import numpy as np

from repro.imdb.memory import CowMemory
from repro.imdb.store import KVStore
from repro.kernel.accounting import CpuAccount
from repro.obs.registry import MetricsRegistry, ObsSamples, percentile
from repro.persist.compress import Compressor
from repro.persist.encoding import AofRecord, OP_DEL, OP_SET
from repro.persist.interfaces import SnapshotSink
from repro.persist.snapshot import (
    SnapshotKind,
    SnapshotStats,
    SnapshotWriterProcess,
)
from repro.persist.wal import LoggingPolicy, WalManager
from repro.sim import Environment, Resource

__all__ = ["ClientOp", "ServerConfig", "ServerMetrics", "Server"]

US = 1e-6
#: query-path CPU of one DEL (between a GET's and a SET's)
DEL_CPU = 6.0 * US
#: AOF buffer size that forces the main-thread write() even when the
#: event loop is busy (one write per loop iteration in Redis)
WAL_WRITE_BATCH_BYTES = 128 * 1024


@dataclass(frozen=True)
class ClientOp:
    """One client request."""

    op: str  # "SET" | "GET" | "DEL"
    key: bytes
    value: bytes = b""

    def __post_init__(self) -> None:
        if self.op not in ("SET", "GET", "DEL"):
            raise ValueError(f"unknown op {self.op!r}")


@dataclass(frozen=True)
class ServerConfig:
    """Query-path CPU costs and snapshot policy."""

    set_cpu: float = 8.0 * US
    get_cpu: float = 5.0 * US
    #: WAL size that triggers a WAL-Snapshot (None = never)
    wal_snapshot_trigger_bytes: int | None = None
    snapshot_chunk_entries: int = 128

    def __post_init__(self) -> None:
        for f in ("set_cpu", "get_cpu"):
            if not getattr(self, f) >= 0:
                raise ValueError(f"{f} must be >= 0")
        if self.snapshot_chunk_entries < 1:
            raise ValueError("snapshot_chunk_entries must be >= 1")


class _Peak:
    """Running maximum of a sampled value."""

    peak = 0.0


class ServerMetrics:
    """Everything the evaluation section reads off one run.

    A window, not a store: the samples live in the server's
    ``server_command_latency_seconds`` series (cumulative, like every
    instrument); this remembers how long each series was when the
    window opened and reads only what came after.
    """

    def __init__(self, series: dict[str, ObsSamples]):
        self._series = series
        self._start = {op: s.count for op, s in series.items()}
        #: resident bytes (keyspace + CoW copies), peak since opening
        self.memory = _Peak()
        self.snapshot_windows: list[tuple[float, float]] = []
        self.snapshots: list[SnapshotStats] = []

    @property
    def set_latency(self) -> np.ndarray:
        return self._series["SET"].values(self._start["SET"])

    @property
    def get_latency(self) -> np.ndarray:
        return self._series["GET"].values(self._start["GET"])

    @property
    def op_times(self) -> np.ndarray:
        """Completion instants of every command in the window, sorted."""
        return np.sort(np.concatenate(
            [s.times(self._start[op]) for op, s in self._series.items()]
        ))

    def span(self) -> tuple[float, float]:
        """The measured span: first to last completion in the window.

        A run's tail after its last op (a snapshot outliving the load,
        the driver's settle wait) is not measured time.
        """
        arr = self.op_times
        return (float(arr[0]), float(arr[-1])) if len(arr) else (0.0, 0.0)

    def phase_rps(self) -> dict[str, float]:
        """Mean RPS inside vs outside snapshot windows, over the span."""
        arr = self.op_times
        if len(arr) == 0:
            return {"wal_only": 0.0, "wal_snapshot": 0.0, "average": 0.0}
        lo, hi = self.span()
        in_snap = np.zeros(len(arr), dtype=bool)
        snap_time = 0.0
        for t0, t1 in self.snapshot_windows:
            # clamp to the measured span (a snapshot may straddle the
            # metrics-reset boundary or outlive the load)
            t0c, t1c = max(t0, lo), min(t1, hi)
            if t1c > t0c:
                in_snap |= (arr >= t0c) & (arr <= t1c)
                snap_time += t1c - t0c
        total_time = hi - lo if hi > lo else 1e-12
        out_time = max(total_time - snap_time, 1e-12)
        n_in = int(in_snap.sum())
        n_out = len(arr) - n_in
        return {
            "wal_only": n_out / out_time,
            "wal_snapshot": n_in / snap_time if snap_time > 0 else 0.0,
            "average": len(arr) / total_time,
        }


class Server:
    """One IMDB instance bound to a WAL manager and a snapshot sink."""

    def __init__(
        self,
        env: Environment,
        store: KVStore,
        wal: WalManager | None,
        snapshot_sink_factory: Callable[[SnapshotKind], SnapshotSink] | None,
        config: ServerConfig | None = None,
        name: str = "imdb",
        obs=None,
    ):
        self.env = env
        self.store = store
        self.wal = wal
        self.sink_factory = snapshot_sink_factory
        self.config = config or ServerConfig()
        #: holds the shared chunk memo for the server's lifetime
        self.compressor = Compressor()
        self.name = name
        self.cpu = Resource(env, capacity=1)
        self.account = wal.account if wal is not None else CpuAccount(env, name)
        self.cow = CowMemory(env, store.page_size)
        self.obs = obs or MetricsRegistry(env)
        self._sinks: dict[SnapshotKind, SnapshotSink] = {}
        self._snapshot_proc = None
        self._snapshot_pending = False
        self._stopped = False
        self._obs_latency = {
            op: self.obs.samples("server_command_latency_seconds",
                                 op=op, server=name)
            for op in ("SET", "GET", "DEL")
        }
        self.metrics = ServerMetrics(self._obs_latency)
        self._obs_commands = {
            op: self.obs.counter("server_commands_total",
                                 op=op, server=name)
            for op in ("SET", "GET", "DEL")
        }
        self._obs_stalls = self.obs.counter(
            "server_wal_buffer_stalls_total", server=name
        )
        self._obs_stall_time = self.obs.histogram(
            "server_wal_buffer_stall_seconds", server=name
        )
        self.obs.gauge(
            "server_resident_bytes",
            fn=lambda: float(self.store.used_bytes + self.cow.extra_bytes),
            server=name,
        )
        #: request tracer (:class:`repro.obs.trace.RequestTracer`);
        #: ``None`` = tracing off, the hot path does no trace work
        self.rtrace = None
        #: tenant name stamped on traces (cluster shard name)
        self.trace_tenant = ""

    # ------------------------------------------------------------------ queries
    def execute(self, op: ClientOp) -> Generator:
        """Serve one request; returns the value for GET, None otherwise.

        Latency = queueing on the server CPU + service + persistence
        per policy (measured from call to return, like a client does).
        """
        t_arrive = self.env.now
        rt = self.rtrace
        ctx = None
        owns_ctx = False
        if rt is not None:
            # a connection front end (repro.net) may have opened the
            # request trace already — nest under it instead of starting
            # a second root
            ctx = rt.current()
            if ctx is None:
                ctx = rt.start_request(
                    op.op, tenant=self.trace_tenant or self.name
                )
                owns_ctx = True
            elif not ctx.tenant:
                ctx.tenant = self.trace_tenant or self.name
        ok = False
        try:
            req = self.cpu.request()
            yield req
            if rt is not None and self.env.now > t_arrive:
                rt.add_span("cpu_queue", "server", t_arrive, self.env.now)
            sp_serve = rt.open_span("serve", "server") if rt is not None \
                else None
            try:
                result, wal_seq = yield from self._serve(op)
            finally:
                if rt is not None:
                    rt.close_span(sp_serve)
                self.cpu.release(req)
            if wal_seq is not None and self.wal.policy is LoggingPolicy.ALWAYS:
                # Always-Log: the reply waits for durability; concurrent
                # writers group-commit (the CPU is free meanwhile, matching
                # Redis's batched event-loop write+fsync)
                sp_wal = rt.open_span("wal_commit", "wal", seq=wal_seq) \
                    if rt is not None else None
                try:
                    yield from self.wal.ensure_durable(wal_seq)
                finally:
                    if rt is not None:
                        rt.close_span(sp_wal)
            elif wal_seq is not None and self.wal.over_buffer_limit:
                # Periodical-Log hard limit: the device (e.g. mid-GC) has
                # fallen behind; write queries block until the AOF buffer
                # drains — the Figure 4 nosedive mechanism
                t_stall = self.env.now
                sp_wal = rt.open_span("wal_commit", "wal", seq=wal_seq,
                                      stalled=True) \
                    if rt is not None else None
                try:
                    yield from self.wal.wait_capacity()
                finally:
                    if rt is not None:
                        rt.close_span(sp_wal)
                self._obs_stalls.inc()
                self._obs_stall_time.observe(self.env.now - t_stall)
            ok = True
        finally:
            if ctx is not None and owns_ctx:
                rt.finish_request(ctx, ok=ok)
        now = self.env.now
        self._obs_latency[op.op].observe(now, now - t_arrive)
        self._obs_commands[op.op].inc()
        self._sample_memory()
        self._maybe_trigger_wal_snapshot()
        if self.wal is not None:
            idle = self.cpu.count == 0 and self.cpu.queue_len == 0
            if idle or self.wal.buffered_bytes >= WAL_WRITE_BATCH_BYTES:
                # flushAppendOnlyFile on the main thread: when the event
                # loop goes idle, or once per batch under load
                self.wal.idle_drain(self.cpu)
        # durability is decided per policy above: Always-Log awaited
        # ensure_durable; Periodical-Log acks inside the everysec
        # window by contract (the paper's Figure 4 trade), so the
        # return is deliberately not flush-dominated
        return result  # slimflow: relaxed-durability — everysec window

    def _serve(self, op: ClientOp) -> Generator:
        cfg = self.config
        acct = self.account
        wal_seq = None
        if op.op == "GET":
            _cpu_ev = acct.charge("query_cpu", cfg.get_cpu)
            if _cpu_ev is not None:
                yield _cpu_ev
            return self.store.get(op.key), None
        if op.op == "SET":
            _cpu_ev = acct.charge("query_cpu", cfg.set_cpu)
            if _cpu_ev is not None:
                yield _cpu_ev
            if self.wal is not None:
                wal_seq = self.wal.stage(
                    AofRecord(op=OP_SET, key=op.key, value=op.value)
                )
            first, n = self.store.set(op.key, op.value)
            yield from self.cow.touch(first, n, acct)
            return None, wal_seq
        # DEL
        _cpu_ev = acct.charge("query_cpu", DEL_CPU)
        if _cpu_ev is not None:
            yield _cpu_ev
        if self.wal is not None:
            wal_seq = self.wal.stage(AofRecord(op=OP_DEL, key=op.key))
        pages = self.store.pages_of(op.key)
        existed = self.store.delete(op.key)
        if existed and pages is not None:
            yield from self.cow.touch(pages[0], pages[1], acct)
        return existed, wal_seq

    # ------------------------------------------------------------------ snapshots
    @property
    def snapshot_in_progress(self) -> bool:
        return self.cow.snapshot_active or self._snapshot_pending

    def _sink_for(self, kind: SnapshotKind) -> SnapshotSink:
        sink = self._sinks.get(kind)
        if sink is None:
            if self.sink_factory is None:
                raise RuntimeError("server has no snapshot sink")
            sink = self.sink_factory(kind)
            self._sinks[kind] = sink
        return sink

    def start_snapshot(self, kind: SnapshotKind = SnapshotKind.ON_DEMAND):
        """Begin a snapshot; returns the child Process (its value is
        :class:`SnapshotStats`). No-op (returns None) if one is active.

        Queued like a command: the CPU slot is claimed synchronously so
        the fork happens after any in-flight command and before any
        later one — exactly Redis's BGSAVE-between-commands semantics.
        """
        if self.cow.snapshot_active or self._snapshot_pending or self._stopped:
            return None
        self._snapshot_pending = True
        req = self.cpu.request()
        self._snapshot_proc = self.env.process(
            self._snapshot_body(kind, req), name=f"{self.name}-snapshot"
        )
        return self._snapshot_proc

    def _snapshot_body(self, kind: SnapshotKind, req) -> Generator:
        yield req
        t0 = self.env.now
        # the span covers fork through durable publication; the child's
        # own snapshot_write span nests inside it on the same layer
        with self.obs.span("snapshot", "snapshot", kind=kind.value):
            try:
                # the fork instant: capture + share pages + switch the
                # WAL generation, all before any later command can run
                self.cow.arm(self.store.heap_pages)
                items = self.store.snapshot_items()
                if kind is SnapshotKind.WAL_TRIGGERED and self.wal is not None:
                    self.wal.rotate_begin()
                self._snapshot_pending = False
                # page-table copy stalls the query path
                yield from self.cow.pt_copy_stall(self.account)
            finally:
                self.cpu.release(req)
            child = SnapshotWriterProcess(
                self.env,
                items,
                self._sink_for(kind),
                kind=kind,
                compressor=self.compressor,
                chunk_entries=self.config.snapshot_chunk_entries,
                account=CpuAccount(self.env, f"{self.name}-snapshot-child"),
                obs=self.obs,
            )
            try:
                stats = yield from child.run()
            except Exception:
                self.cow.reap()
                self.metrics.snapshot_windows.append((t0, self.env.now))
                self._sample_memory()
                raise
            self.cow.reap()
            self.metrics.snapshot_windows.append((t0, self.env.now))
            self.metrics.snapshots.append(stats)
            self._sample_memory()
        if kind is SnapshotKind.WAL_TRIGGERED and self.wal is not None:
            # the pre-snapshot WAL generation is retired only now that
            # the covering snapshot is durable (§2.1 / §4.2 ordering)
            yield from self.wal.retire_previous()
        return stats

    def _maybe_trigger_wal_snapshot(self) -> None:
        trigger = self.config.wal_snapshot_trigger_bytes
        if (
            trigger is not None
            and self.wal is not None
            and self.wal.size >= trigger
            and not self.cow.snapshot_active
        ):
            self.start_snapshot(SnapshotKind.WAL_TRIGGERED)

    # ------------------------------------------------------------------ misc
    def _sample_memory(self) -> None:
        memory = self.metrics.memory
        resident = self.store.used_bytes + self.cow.extra_bytes
        if resident > memory.peak:
            memory.peak = resident

    def info(self) -> dict[str, float]:
        """A Redis ``INFO``-style snapshot of server state and metrics."""
        m = self.metrics
        out = {
            "keys": float(len(self.store)),
            "used_memory": float(self.store.used_bytes),
            "used_memory_peak": float(m.memory.peak),
            "total_commands_processed": float(len(m.op_times)),
            "instantaneous_ops": m.phase_rps()["average"],
            "set_p999": percentile(m.set_latency, 99.9),
            "get_p999": percentile(m.get_latency, 99.9),
            "snapshot_in_progress": float(self.snapshot_in_progress),
            "snapshots_completed": float(len(m.snapshots)),
            "cow_copied_pages": float(self.cow.copied_pages),
            "cow_faults": float(self.cow.cow_faults),
        }
        if self.wal is not None:
            out["wal_bytes"] = float(self.wal.size)
            out["wal_buffered_bytes"] = float(self.wal.buffered_bytes)
        return out

    def reset_metrics(self) -> None:
        """Open a fresh window (warm-up samples fall before it; the
        registry's series stay cumulative); state is untouched."""
        self.metrics = ServerMetrics(self._obs_latency)
        self._sample_memory()

    def stop(self) -> None:
        """End of run: stop background activity (the WAL flusher)."""
        self._stopped = True
        if self.wal is not None:
            self.wal.close()
