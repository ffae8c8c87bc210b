"""Write-Ahead Log manager with Redis's two logging policies.

Faithful to how Redis actually schedules AOF I/O:

* the ``write()`` into the kernel happens **on the main thread** — in
  Redis, ``flushAppendOnlyFile`` runs in the event loop before it
  sleeps. Here, the server calls :meth:`idle_drain` whenever its CPU
  goes idle, and the drain *holds the server CPU* while the sink
  appends. On the baseline this is the per-batch syscall/copy/journal
  tax of §3.1.1; on SlimIO's WAL-Path an append is user-space staging
  and costs nothing.
* **Periodical-Log** (``appendfsync everysec``): records are staged in
  the user-level buffer, appended on idle/deadline, and made durable
  (fsync / passthru write) once per ``flush_interval`` by a background
  flusher — queries never wait.
* **Always-Log** (``appendfsync always``): a write query completes only
  when its record is durable. Concurrent queries **group-commit**: the
  first waiter drains everything staged so far in one sink operation,
  later waiters discover their record already durable.

Generation rotation (at the snapshot fork) and retirement (after the
snapshot is durable) follow §2.1/§4.2: ``rotate_begin`` is synchronous
at the fork instant; the old generation replays until
``retire_previous``.
"""

from __future__ import annotations

import enum
from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.obs.registry import MetricsRegistry
from repro.persist.encoding import AofCodec, AofRecord
from repro.persist.interfaces import AppendSink
from repro.sim import Environment, Event, Resource

__all__ = ["LoggingPolicy", "WalManager"]


class LoggingPolicy(enum.Enum):
    PERIODICAL = "periodical"
    ALWAYS = "always"


class WalManager:
    """Buffers, encodes, appends, and syncs write-ahead-log records."""

    def __init__(
        self,
        env: Environment,
        sink: AppendSink,
        account: CpuAccount,
        policy: LoggingPolicy = LoggingPolicy.PERIODICAL,
        flush_interval: float = 1.0,
        buffer_limit_bytes: int = 32 * 1024 * 1024,
        obs=None,
    ):
        if not flush_interval > 0:  # NaN-safe
            raise ValueError("flush_interval must be positive")
        self.env = env
        self.sink = sink
        self.account = account
        self.policy = policy
        self.flush_interval = flush_interval
        self.buffer_limit = buffer_limit_bytes

        self._buffer: list[bytes] = []
        self._buffer_bytes = 0
        self._old_buffer: list[bytes] = []  # pre-fork records awaiting flush
        self._boundary_pending = 0  # generation switches not yet at the sink
        self._logged_bytes = 0  # current generation, incl. buffered
        self._staged_seq = 0  # last staged record
        self._durable_seq = 0  # last record known durable
        self._sink_lock = Resource(env, capacity=1)
        self._idle_drain_active = False
        self._flush_kick: Event | None = None
        self._capacity_waiters: list[Event] = []
        self._closing = False
        # Spans: every wal_flush/wal_fsync on layer "wal" runs under
        # the sink lock, so they never overlap; the everysec fsync that
        # deliberately runs outside the lock is labelled unlocked=True.
        self.obs = obs or MetricsRegistry(env)
        self._obs_flush_bytes = self.obs.histogram(
            "wal_flush_bytes", policy=policy.value
        )
        self._obs_buffered = self.obs.gauge("wal_buffered_bytes")
        self._obs_buffered.set(0.0)
        self._obs_group_commits = self.obs.counter("wal_group_commits_total")
        self._obs_backpressure = self.obs.counter(
            "wal_backpressure_waits_total"
        )
        self._obs_records = self.obs.counter("wal_records_total")
        self._obs_sync_flushes = self.obs.counter("wal_sync_flushes_total")
        self._obs_periodic_flushes = self.obs.counter(
            "wal_periodic_flushes_total"
        )
        self._obs_idle_writes = self.obs.counter("wal_idle_writes_total")
        self._obs_rotations = self.obs.counter("wal_rotations_total")
        self._obs_retirements = self.obs.counter("wal_retirements_total")
        #: request tracer (None = tracing off); drains record a
        #: ``wal_flush`` span whose ``links`` name every trace id the
        #: group commit makes durable
        self.rtrace = None
        if policy is LoggingPolicy.PERIODICAL:
            env.process(self._flusher(), name="wal-flusher")

    # ------------------------------------------------------------------ staging
    def stage(self, record: AofRecord) -> int:
        """Buffer one record (synchronous); returns its sequence number."""
        data = AofCodec.encode(record)
        self._buffer.append(data)
        self._buffer_bytes += len(data)
        self._logged_bytes += len(data)
        self._staged_seq += 1
        self._obs_records.inc()
        if self.rtrace is not None:
            self.rtrace.note_wal_stage(self, self._staged_seq)
        self._obs_buffered.set(float(self._buffer_bytes))
        if self._buffer_bytes >= self.buffer_limit:
            self._kick()
        return self._staged_seq

    @property
    def over_buffer_limit(self) -> bool:
        return self._buffer_bytes >= self.buffer_limit

    def wait_capacity(self) -> Generator:
        """Block until the user buffer drains below the hard limit.

        Redis's AOF hard limit: when the device cannot keep up (e.g.
        SSD GC) and the buffer overgrows, write queries block — the
        mechanism behind Figure 4's RPS nosedives on the non-FDP
        device.
        """
        while self._buffer_bytes >= self.buffer_limit and not self._closing:
            self._kick()
            waiter = self.env.event()
            self._capacity_waiters.append(waiter)
            yield waiter
            self._obs_backpressure.inc()

    @property
    def size(self) -> int:
        """Total bytes in the current WAL generation (trigger metric)."""
        return self._logged_bytes

    @property
    def buffered_bytes(self) -> int:
        return self._buffer_bytes

    # ------------------------------------------------------------------ durability
    def ensure_durable(self, seq: int) -> Generator:
        """Group commit: returns once record ``seq`` is durable."""
        while self._durable_seq < seq:
            req = self._sink_lock.request()
            yield req
            try:
                if self._durable_seq >= seq:
                    return
                yield from self._cross_boundary_locked()
                yield from self._drain_locked(fsync=True)
            finally:
                self._sink_lock.release(req)
            self._obs_group_commits.inc()

    def flush_now(self) -> Generator:
        """Drain, then make everything appended so far durable.

        The fsync happens OUTSIDE the sink lock: Redis's everysec fsync
        runs on a background thread while the main loop keeps appending
        to the same file — serializing them would turn every slow fsync
        (e.g. during device GC) into an artificial append stall.
        """
        req = self._sink_lock.request()
        yield req
        try:
            yield from self._cross_boundary_locked()
            top = self._staged_seq
            yield from self._drain_locked(fsync=False)
        finally:
            self._sink_lock.release(req)
        # outside the sink lock, so labelled apart from the locked
        # drains' fsyncs (it may overlap one)
        rt = self.rtrace
        bg = None
        if rt is not None and rt.current() is None:
            bg = rt.begin_background("wal-sync")
        try:
            with self.obs.span("wal_fsync", "wal", unlocked=True):
                yield from self.sink.flush(self.account)
        finally:
            if bg is not None:
                rt.finish_background(bg)
        self._durable_seq = max(self._durable_seq, top)
        self._obs_sync_flushes.inc()

    # ------------------------------------------------------------------ idle drain
    def idle_drain(self, cpu: Resource):
        """The main-thread ``write()``: schedule a drain that holds the
        server CPU while the sink appends (no fsync). Called by the
        server whenever its CPU goes idle; no-op if nothing is staged
        or a drain is already pending."""
        if (
            self.policy is not LoggingPolicy.PERIODICAL
            or self._idle_drain_active
            or (not self._buffer and not self._boundary_pending)
            or self._closing
            # sink busy (flusher mid-drain): don't capture the server
            # CPU just to queue behind it — next idle tick will drain
            or self._sink_lock.count > 0
        ):
            return None
        self._idle_drain_active = True
        return self.env.process(self._idle_drain_body(cpu), name="wal-write")

    def _idle_drain_body(self, cpu: Resource) -> Generator:
        # lock order: sink THEN cpu — never hold the server CPU while
        # queueing behind a (device-speed) flush of the sink
        req = self._sink_lock.request()
        yield req
        try:
            # generation switch I/O (flush old gen, write metadata) is
            # sink-side work — it must not stall the query loop
            yield from self._cross_boundary_locked()
            cpu_req = cpu.request()
            yield cpu_req
            try:
                yield from self._drain_locked(fsync=False)
            finally:
                cpu.release(cpu_req)
            self._obs_idle_writes.inc()
        finally:
            self._sink_lock.release(req)
            self._idle_drain_active = False

    # ------------------------------------------------------------------ internals
    def _cross_boundary_locked(self) -> Generator:
        """Complete a pending generation switch at the sink: pre-fork
        records flush into the old generation first."""
        while self._boundary_pending:
            old = self._old_buffer
            self._old_buffer = []
            self._boundary_pending -= 1
            if old:
                yield from self.sink.append(old, self.account)
                yield from self.sink.flush(self.account)
            yield from self.sink.begin_generation(self.account)

    def _drain_locked(self, fsync: bool) -> Generator:
        top = self._staged_seq
        rt = self.rtrace
        bg = None
        if rt is not None and rt.current() is None \
                and (self._buffer or fsync):
            # Periodical drains run in a background process with no
            # request scope: trace them anonymously so their device
            # spans stay available for blame analysis
            bg = rt.begin_background("wal-drain")
        try:
            if self._buffer:
                # the sink takes the records as they are: the one join
                # is the sink's own
                records, nbytes = self._buffer, self._buffer_bytes
                self._buffer = []
                self._buffer_bytes = 0
                # the links are the causal join of group commit: every
                # request whose record this flush retires
                links = rt.take_staged(self, top) if rt is not None else ()
                with self.obs.span("wal_flush", "wal", links=links,
                                   policy=self.policy.value,
                                   nbytes=nbytes):
                    yield from self.sink.append(records, self.account)
                self._obs_flush_bytes.observe(float(nbytes))
                self._obs_buffered.set(float(self._buffer_bytes))
                if self._capacity_waiters and self._buffer_bytes < self.buffer_limit:
                    waiters, self._capacity_waiters = self._capacity_waiters, []
                    for w in waiters:
                        w.succeed()
            if fsync:
                with self.obs.span("wal_fsync", "wal"):
                    yield from self.sink.flush(self.account)
                self._durable_seq = max(self._durable_seq, top)
                self._obs_sync_flushes.inc()
        finally:
            if bg is not None:
                rt.finish_background(bg)

    def _kick(self) -> None:
        if self._flush_kick is not None and not self._flush_kick.triggered:
            self._flush_kick.succeed()

    def _ff_quiescent(self) -> bool:
        """True when the next periodic flush tick would provably do
        nothing: no staged records, no pending generation switch,
        everything durable, sink idle with a no-op flush, no request
        tracing (absorbed ticks would elide its spans). Under this
        predicate every state change that could disturb the pattern —
        a ``stage``, a ``rotate_begin``, a ``close`` — can only happen
        inside a heap dispatch, so ticks landing strictly before the
        next scheduled event replay in closed form."""
        return (
            not self._buffer
            and not self._boundary_pending
            and self._durable_seq >= self._staged_seq
            and not self._closing
            and self._sink_lock.count == 0
            and self._sink_lock.queue_len == 0
            and self.rtrace is None
            and self.sink.flush_is_noop
        )

    def _flusher(self) -> Generator:
        # the kick-event handoff below is single-writer by design: only
        # this loop ever assigns _flush_kick; rivals (_kick) may succeed
        # the parked event but never replace it, so the read-yield-write
        # cannot lose a rival's update
        env = self.env
        while not self._closing:
            self._flush_kick = env.event()  # slimlint: ignore[SLIM010] single-writer handoff
            yield env.any_of(
                [self._flush_kick, env.timeout(self.flush_interval)]
            )
            self._flush_kick = None  # slimlint: ignore[SLIM010] single-writer handoff
            if self._closing:
                return
            yield from self.flush_now()
            self._obs_periodic_flushes.inc()
            if self._ff_quiescent():
                # Quiescence fast-forward: replay the following run of
                # provably idle ticks in closed form. Each absorbed tick
                # is exactly the flush we just ran — counters bump, no
                # time, no I/O — so k ticks collapse into one wake-up at
                # the k-th instant (idle wal_fsync spans are elided).
                k, wake = env.ff_absorb_ticks(self.flush_interval)
                if k:
                    self._obs_sync_flushes.inc(k)
                    self._obs_periodic_flushes.inc(k)
                    # an idle tick dispatches the tick timeout and the
                    # AnyOf condition (the sink-lock grant resumes
                    # inline); the wake-up event itself pays for one
                    env.ff_credit(2 * k - 1)
                    yield wake

    def close(self) -> None:
        """Stop the background flusher (end of run)."""
        self._closing = True
        self._kick()
        waiters, self._capacity_waiters = self._capacity_waiters, []
        for w in waiters:
            w.succeed()

    # ------------------------------------------------------------------ rotation
    def rotate_begin(self) -> None:
        """Switch generations at the fork instant — synchronous.

        Records logged before this call belong to the old generation
        (their effects are inside the snapshot being taken); records
        logged after belong to the new one. The sink's actual switch
        happens under the sink lock at the next drain, preserving
        append order.
        """
        self._old_buffer.extend(self._buffer)
        self._buffer.clear()
        self._buffer_bytes = 0
        self._boundary_pending += 1
        self._logged_bytes = 0
        self._obs_rotations.inc()
        self._kick()

    def retire_previous(self) -> Generator:
        """Drop the pre-snapshot generation (snapshot is now durable)."""
        # before queueing for the lock: an append holding it may be the
        # one waiting for this generation's space
        self.sink.previous_covered()
        req = self._sink_lock.request()
        yield req
        try:
            yield from self._cross_boundary_locked()
            yield from self.sink.retire_previous(self.account)
        finally:
            self._sink_lock.release(req)
        self._obs_retirements.inc()
