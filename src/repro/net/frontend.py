"""The server-wide front end: listener, admission control, accounting.

The :class:`NetFrontend` sits between open-loop client sessions and a
backend (:class:`~repro.imdb.server.Server` or the cluster router —
anything with an ``execute(op)`` generator).  It owns:

* the :class:`Listener` — a bounded accept backlog; a full backlog
  refuses the connection attempt (the client backs off and retries);
* the :class:`AdmissionController` — one server-wide bound on
  commands admitted (queued + executing) across *all* connections, so
  a thundering herd cannot grow server memory without limit no matter
  how many connections it spreads over;
* completion accounting — every finished command records
  ``(intended start, completion, op)`` so latency curves are computed
  against the open-loop schedule, never against the throttled actual
  send times.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator

from repro.net.conn import MEMO_FRAME_BYTES, Connection, NetConfig, _Step
from repro.persist.memo import BoundedMemo
from repro.sim import Environment, Event, Store

__all__ = ["AdmissionController", "Listener", "NetFrontend"]

_STOP = object()


class AdmissionController:
    """Server-wide inflight-command bound with blocking acquire."""

    def __init__(self, env: Environment, limit: int):
        self.env = env
        self.limit = limit
        self.inflight = 0
        self.peak = 0
        self.rejections = 0
        self._waiters: deque[Event] = deque()

    def try_acquire(self) -> bool:
        if self.inflight < self.limit:
            self.inflight += 1
            if self.inflight > self.peak:
                self.peak = self.inflight
            return True
        self.rejections += 1
        return False

    def wait(self) -> Event:
        """An event that fires at the next release; a BLOCK reader that
        :meth:`try_acquire` refused waits on it, then tries again."""
        ev = Event(self.env)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        self.inflight -= 1
        if self._waiters:
            # wake one waiter; it re-contends via try_acquire (no slot
            # handover, so a racing try_acquire may win — fine, the
            # woken reader just waits again)
            self._waiters.popleft().succeed()


class Listener:
    """A simulated listening socket with a bounded accept backlog."""

    def __init__(self, env: Environment, frontend, backlog: int,
                 accept_cost: float):
        self.env = env
        self.fe = frontend
        self.accept_cost = accept_cost
        self.backlog = Store(env, capacity=backlog)
        self.accepted = 0
        self.refused = 0
        self._closed = False
        #: the accept loop and the backlog get it last waited on
        self._loop = self._accept_loop()
        self._get: Event | None = None
        env.process(self._loop, name="listener")

    def connect(self, then: Callable[[Connection], None]) -> bool:
        """Client side: attempt a connection.

        ``False`` when the listener is closed or the backlog is full
        (ECONNREFUSED — the caller should back off and retry);
        otherwise ``then(conn)`` runs as a client step once the
        connection is accepted.
        """
        if self._closed or len(self.backlog.items) >= self.backlog.capacity:
            self.refused += 1
            return False
        ev = _Step(self.fe)
        ev.on(ev, then)
        self.backlog.put(ev)  # room verified: accepted at birth
        return True

    def close(self) -> None:
        """Stop accepting: every later connect is refused, whatever
        state the accept loop is in.  A loop parked on an empty backlog
        ends here, leaving nothing on the heap and no reference back to
        the front end; one in the middle of an accept finishes the
        connects queued before the close and ends at the stop marker."""
        self._closed = True
        if self._get is not None and not self._get.triggered:
            self._loop.close()
            self.fe = None
        else:
            self.backlog.put(_STOP)

    def _accept_loop(self) -> Generator:
        while True:
            self._get = self.backlog.get()
            ev = yield self._get
            if ev is _STOP:
                return
            if self.accept_cost:
                yield self.env.timeout(self.accept_cost)
            self.accepted += 1
            ev.succeed(self.fe._new_connection())


class NetFrontend:
    """Everything above the backend: connections, limits, accounting."""

    def __init__(self, env: Environment, backend, cfg: NetConfig | None = None,
                 rtrace=None):
        self.env = env
        self.backend = backend
        self.cfg = cfg or NetConfig()
        #: request tracer shared with the backend (may be None)
        self.rtrace = rtrace
        #: client and reader steps owed at the current instant, run in
        #: order before the step that owes them returns (conn._later)
        self._owed: deque = deque()
        self._active = False
        self.admission = AdmissionController(env, self.cfg.max_inflight)
        self.listener = Listener(env, self, self.cfg.accept_queue,
                                 self.cfg.accept_cost)
        #: (t_intended, t_complete, op kind) per finished command
        self.completions: list[tuple[float, float, str]] = []
        self.issued = 0
        self.shed = 0
        self.dropped_conns = 0
        self.dropped_cmds = 0
        self.unsent = 0
        self._conn_seq = 0
        self.connections: list[Connection] = []
        #: frame bytes -> the frozen ``ClientOp`` they decode to (a pure
        #: function of the bytes), shared by this front end's readers;
        #: emptied by :meth:`close`
        self.decode_memo = BoundedMemo(MEMO_FRAME_BYTES)

    # ------------------------------------------------------------ wiring
    def _new_connection(self) -> Connection:
        self._conn_seq += 1
        slow = (self.cfg.slow_every > 0
                and self._conn_seq % self.cfg.slow_every == 0)
        conn = Connection(self.env, self, self.cfg, self._conn_seq,
                          slow=slow)
        self.connections.append(conn)
        return conn

    def record_completion(self, op, t_intended: float,
                          t_complete: float) -> None:
        self.completions.append((t_intended, t_complete, op.op))

    # ------------------------------------------------------------ stats
    @property
    def completed(self) -> int:
        return len(self.completions)

    @property
    def max_conn_queue(self) -> int:
        return max((c.max_queue_seen for c in self.connections), default=0)

    def stats(self) -> dict[str, float]:
        return {
            "issued": float(self.issued),
            "completed": float(self.completed),
            "shed": float(self.shed),
            "dropped_conns": float(self.dropped_conns),
            "dropped_cmds": float(self.dropped_cmds),
            "unsent": float(self.unsent),
            "refused": float(self.listener.refused),
            "accepted": float(self.listener.accepted),
            "peak_inflight": float(self.admission.peak),
            "admission_rejections": float(self.admission.rejections),
            "max_conn_queue": float(self.max_conn_queue),
        }

    def close(self) -> None:
        """End of run: stop accepting, drop the decode memo, and let go
        of every connection nothing can run again, so a front end whose
        run finished is freed by reference counting, without the cycle
        collector.  Completions, :meth:`stats` and ``connections``
        still read afterwards."""
        self.listener.close()
        self.decode_memo.clear()
        for conn in self.connections:
            conn._release()
