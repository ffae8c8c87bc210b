"""The process-based client session and connection reader (reference twin).

``repro.net`` runs the open-loop session, the client side of a
connection and the connection reader as steps pushed in process order
(``repro.net.conn._Step``).  These are the generator processes they
replaced, kept here, and only here, as the obviously-correct twin:
``ProcessFrontend`` builds ``ProcessConnection``s (a ``Store`` inbox,
a reader process, generator ``send``/``drain``/``close``), and
``run_process_open_loop`` drives them from ``process_session``s.  The
dispatcher process is shared with ``Connection``.
"""

from collections import deque
from collections.abc import Generator
from contextlib import contextmanager

import pytest

from repro.imdb.resp import (
    ProtocolError,
    RespError,
    encode,
    RespParser,
    encode_command,
    op_from_command,
)
from repro.net import BackpressurePolicy, NetFrontend
from repro.net.conn import _CLOSE, Connection
from repro.net.openloop import RECONNECT_BACKOFF
from repro.persist.snapshot import SnapshotKind
from repro.sim import Environment, Event, Interrupt, Store


def connect(listener) -> Generator:
    """Attempt a connection: the :class:`Connection`, or ``None`` when
    the backlog is full."""
    if len(listener.backlog.items) >= listener.backlog.capacity:
        listener.refused += 1
        return None
    ev = Event(listener.env)
    yield listener.backlog.put(ev)  # room verified: accepted at birth
    conn = yield ev
    return conn


def acquire(admission) -> Generator:
    """Block until an admission slot is granted."""
    while not admission.try_acquire():
        yield admission.wait()


class ProcessConnection(Connection):
    """``Connection`` with the reader and the client side as processes."""

    def __init__(self, env, frontend, cfg, conn_id, slow=False):
        self.env = env
        self.fe = frontend
        self.cfg = cfg
        self.conn_id = conn_id
        self.slow = slow
        self.client_bw = cfg.client_bandwidth * cfg.slow_factor if slow \
            else cfg.client_bandwidth
        self.server_bw = cfg.server_bandwidth * cfg.slow_factor if slow \
            else cfg.server_bandwidth
        self.inbox = Store(env)
        self.queue = Store(env, capacity=cfg.conn_queue)
        self.parser = RespParser()
        self._meta = deque()
        self.closed = False
        self.dropped = False
        self.max_queue_seen = 0
        self.replies = []
        self._outstanding = 0
        self._window_ev = None
        self._train = None
        self._reader = env.process(self._read_loop(),
                                   name=f"conn{conn_id}-rd")
        self._dispatcher = env.process(self._dispatch_loop(),
                                       name=f"conn{conn_id}-dx")

    # ------------------------------------------------------------ client side
    def send(self, group, t_intended: float) -> Generator:
        sent = 0
        for op in group:
            while self._outstanding >= self.cfg.pipeline_depth \
                    and not self.closed:
                if self._window_ev is None:
                    self._window_ev = Event(self.env)
                yield self._window_ev
            if self.closed:
                self.fe.unsent += len(group) - sent
                return sent
            data = encode_command(op)
            self._outstanding += 1
            self._meta.append(t_intended)
            self.fe.issued += 1
            bw = self.client_bw
            frag = self.cfg.fragment_bytes
            t = self.env.now
            bounds = []
            for i in range(0, len(data), frag):
                t = t + min(frag, len(data) - i) / bw
                bounds.append(t)
            self._train = (self.env.active_process, bounds)
            try:
                yield self.env.at(t)
            except Interrupt:
                pass  # closed mid-train: woken at a fragment boundary
            self._train = None
            if self.closed:
                self.fe.unsent += len(group) - sent - 1
                return sent
            yield self.inbox.put(data)
            sent += 1
        return sent

    def drain(self) -> Generator:
        while self._outstanding > 0 and not self.closed:
            if self._window_ev is None:
                self._window_ev = Event(self.env)
            yield self._window_ev

    def close(self) -> Generator:
        if not self.closed:
            yield self.inbox.put(_CLOSE)

    # ------------------------------------------------------------ internals
    def _wake_window(self) -> None:
        ev = self._window_ev
        if ev is not None:
            self._window_ev = None
            ev.succeed()

    def _mark_closed(self) -> None:
        self.closed = True
        if self._train is not None:
            sender, bounds = self._train
            t = next(b for b in bounds if b >= self.env.now)
            if t < bounds[-1]:
                self.env.at(t).callbacks.append(
                    lambda _ev: sender.interrupt())

    # ------------------------------------------------------------ reader
    def _read_loop(self) -> Generator:
        env = self.env
        cfg = self.cfg
        parser = self.parser
        memo = self.fe.decode_memo
        while True:
            chunk = yield self.inbox.get()
            if chunk is _CLOSE or self.closed:
                if not self.closed:
                    self._mark_closed()
                    yield self.queue.put(_CLOSE)
                self._wake_window()
                return
            whole = type(chunk) is bytes and not parser.pending_bytes
            op = memo.get(chunk) if whole else None
            if op is not None:
                if cfg.parse_cpu:
                    yield env.timeout(cfg.parse_cpu)
                t_int = self._meta.popleft() if self._meta else env.now
                yield from self._admit_process(op, t_int)
                if self.dropped:
                    return
                continue
            parser.feed(chunk)
            while True:
                try:
                    done, value = parser.parse()
                except ProtocolError:
                    self._drop_close()
                    return
                if not done:
                    break
                if cfg.parse_cpu:
                    yield env.timeout(cfg.parse_cpu)
                try:
                    op = op_from_command(value)
                except ProtocolError:
                    self._drop_close()
                    return
                if whole and not parser.pending_bytes:
                    memo.store(chunk, op, len(chunk))
                whole = False
                t_int = self._meta.popleft() if self._meta else env.now
                yield from self._admit_process(op, t_int)
                if self.dropped:
                    return

    def _admit_process(self, op, t_int: float) -> Generator:
        fe = self.fe
        pol = self.cfg.policy
        if pol is BackpressurePolicy.BLOCK:
            yield from acquire(fe.admission)
            yield self.queue.put((op, t_int, self.env.now))
        elif pol is BackpressurePolicy.SHED:
            if len(self.queue.items) >= self.queue.capacity \
                    or not fe.admission.try_acquire():
                fe.shed += 1
                self._outstanding -= 1
                self._wake_window()
                busy = encode(RespError(self.cfg.busy_message))
                if self.cfg.capture_replies:
                    self.replies.append(busy)
                yield self.env.timeout(len(busy) / self.server_bw)
                return
            yield self.queue.put((op, t_int, self.env.now))
        else:  # DROP
            if len(self.queue.items) >= self.queue.capacity \
                    or not fe.admission.try_acquire():
                fe.dropped_cmds += 1
                self._drop_close()
                return
            yield self.queue.put((op, t_int, self.env.now))
        self.max_queue_seen = max(self.max_queue_seen,
                                  len(self.queue.items))


class ProcessFrontend(NetFrontend):
    """A front end whose listener accepts :class:`ProcessConnection`s."""

    def _new_connection(self):
        self._conn_seq += 1
        slow = (self.cfg.slow_every > 0
                and self._conn_seq % self.cfg.slow_every == 0)
        conn = ProcessConnection(self.env, self, self.cfg, self._conn_seq,
                                 slow=slow)
        self.connections.append(conn)
        return conn


def process_session(env, fe, stream, times, indices,
                    conn_lifetime) -> Generator:
    """The open-loop session process ``run_open_loop`` used to start."""
    conn = None
    groups_on_conn = 0
    for i in indices:
        t_int = float(times[i])
        if env.now < t_int:
            yield env.timeout(t_int - env.now)
        while conn is None or conn.closed:
            conn = yield from connect(fe.listener)
            if conn is None:
                yield env.timeout(RECONNECT_BACKOFF)
            groups_on_conn = 0
        yield from conn.send(stream.group(i), t_int)
        groups_on_conn += 1
        if conn_lifetime is not None and groups_on_conn >= conn_lifetime:
            yield from conn.drain()
            yield from conn.close()
    if conn is not None and not conn.closed:
        yield from conn.drain()
        yield from conn.close()


def run_process_open_loop(env, fe, stream, times, *, clients, horizon,
                          servers=(), snapshot_at=None,
                          conn_lifetime=None) -> None:
    """``run_open_loop`` on process sessions (``fe`` a ProcessFrontend)."""
    for k in range(clients):
        idx = range(k, len(times), clients)
        env.process(
            process_session(env, fe, stream, times, idx, conn_lifetime),
            name=f"openloop-client{k}")
    if snapshot_at is not None and servers:
        def _snap():
            yield env.timeout(snapshot_at)
            for s in servers:
                s.start_snapshot(SnapshotKind.ON_DEMAND)
        env.process(_snap(), name="openloop-snapshot")
    env.run(until=env.now + horizon)
    fe.close()


class InstantLog(Environment):
    """An environment that lists, in dispatch order, the instant of
    every dispatched entry that was pushed ahead of the clock (the
    time-advancing ones): two runs that list the same instants moved
    the clock through the same steps, whatever they did at each
    instant.  Dispatches are seen through ``Event._run_callbacks``, so
    build it inside :func:`logging_dispatches`."""

    def __init__(self):
        super().__init__()
        self.instants: list[float] = []
        self._ahead: set[int] = set()

    def _schedule(self, event, delay=0.0, priority=1):
        if delay > 0:
            self._ahead.add(id(event))
        super()._schedule(event, delay, priority)

    def schedule_at(self, event, when):
        if when > self.now:
            self._ahead.add(id(event))
        super().schedule_at(event, when)


@contextmanager
def logging_dispatches():
    run = Event._run_callbacks

    def logged(event):
        env = event.env
        if isinstance(env, InstantLog) and id(event) in env._ahead:
            env._ahead.discard(id(event))
            env.instants.append(env.now)
        run(event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Event, "_run_callbacks", logged)
        yield
