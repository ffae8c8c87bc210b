"""Per-connection state machines: framing, queues, backpressure.

A :class:`Connection` is one simulated TCP connection.  The client side
writes RESP2-encoded commands into the connection's inbox, each
arriving when the last of its ``fragment_bytes`` fragments would have
(paced by client bandwidth — slow clients trickle); the server side
has two actors:

* a **reader** that feeds arriving chunks through a streaming
  :class:`~repro.imdb.resp.RespParser`, maps each complete frame to a
  :class:`~repro.imdb.server.ClientOp`, and *admits* it subject to the
  backpressure policy.  A chunk byte-equal to a frame the front end
  already decoded, arriving into an empty parser, takes that frame's
  op from the front end's ``decode_memo`` instead;
* a **dispatcher** process that pops admitted commands off the bounded
  per-connection queue, executes them on the backend (a
  :class:`~repro.imdb.server.Server` or the cluster router — both
  expose the same ``execute`` generator), writes the RESP reply back at
  the client's drain rate, and completes the request.

The client side (:meth:`Connection.send`, :meth:`~Connection.drain`,
:meth:`~Connection.close`, driven by the open-loop sessions) and the
reader are not generator processes but *steps*: methods run from a
reused heap entry (:class:`_Step`, the idiom of the NAND die FIFOs).
Each step ends where the process it replaced would have yielded, and
the next one is pushed with the same float arithmetic and at the same
point in the sequence as that process's wake-up, so the simulation is
the one the processes ran.  Where the process engine would dispatch a
zero-delay wake-up next anyway — nothing else due at this instant —
the step runs without the heap round-trip (:func:`_later`).

Backpressure policies when the per-connection queue is full or the
server-wide admission limit is reached:

* ``BLOCK`` — the reader stops reading (TCP-style: bytes pile up in
  the inbox, the client's pipeline window eventually stalls it).
* ``SHED`` — reply ``-BUSY`` immediately; the command never reaches
  the backend.  The reply is a well-formed RESP error.
* ``DROP`` — close the connection, discarding its queue (admission
  slots are returned); the client sees the close and must reconnect.

Latency is measured from the request's **intended** start (its arrival
instant in the open-loop schedule), so queueing anywhere — client-side
window, inbox, connection queue, server CPU — is always included: no
coordinated omission.  Queue residency is recorded as ``net``-layer
spans on the request trace.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Generator
from typing import Any

from repro.imdb.resp import (
    ProtocolError,
    RespError,
    encode,
    encode_command,
    op_from_command,
    RespParser,
)
from repro.sim import Environment, Event, Store
from repro.sim.engine import Initialize

__all__ = ["BackpressurePolicy", "NetConfig", "Connection"]

#: inbox/queue sentinel for connection teardown
_CLOSE = object()

#: frame bytes a front end's ``decode_memo`` holds before it starts over.
#: One rate of slimbench's ``openloop_net`` sends ~450-600 distinct
#: frames (~1 MB), so only unique-value traffic reaches it.
MEMO_FRAME_BYTES = 4 * 1024 * 1024


class BackpressurePolicy(enum.Enum):
    BLOCK = "block"
    SHED = "shed"
    DROP = "drop"


@dataclass(frozen=True)
class NetConfig:
    """Connection-layer knobs (all times in sim seconds)."""

    #: pending-connection backlog on the listener; full = refused
    accept_queue: int = 64
    #: per-connection command queue bound
    conn_queue: int = 16
    #: server-wide admission limit (queued + executing commands)
    max_inflight: int = 256
    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    #: client-side pipelining window (commands in flight per connection)
    pipeline_depth: int = 1
    #: wire fragment size: a command's delivery instant is the running
    #: sum of its fragments' ``len / bandwidth`` delays, and a sender
    #: notices a close at the next fragment boundary.  The inbox holds
    #: whole commands, not fragments.
    fragment_bytes: int = 512
    #: client -> server path, bytes/s
    client_bandwidth: float = 100e6
    #: server -> client reply path, bytes/s
    server_bandwidth: float = 100e6
    #: every Nth accepted connection is a slow client (0 = none)
    slow_every: int = 0
    #: slow clients run both paths at this fraction of bandwidth
    slow_factor: float = 0.05
    #: per-command framing/dispatch CPU on the net thread
    parse_cpu: float = 0.5e-6
    #: listener accept(2) + session setup cost
    accept_cost: float = 2e-6
    busy_message: str = "BUSY server overloaded"
    #: keep every reply's wire bytes on the connection (tests only —
    #: unbounded memory under load)
    capture_replies: bool = False

    def __post_init__(self) -> None:
        if self.accept_queue < 1 or self.conn_queue < 1:
            raise ValueError("queue bounds must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.fragment_bytes < 1:
            raise ValueError("fragment_bytes must be >= 1")
        if not 0.0 < self.slow_factor <= 1.0:
            raise ValueError("slow_factor must be in (0, 1]")


class _Step(Event):
    """A reusable heap entry that runs one step of a net actor.

    Pushed again each time its actor waits (:meth:`at`, through
    ``env.schedule_at``), or hooked onto an event another component
    fires (:meth:`on`); either way dispatching it calls ``fn(value)``
    in the front end's step context, then runs the wake-ups that step
    owes at this instant (see :func:`_later`).  One actor waits on one
    thing at a time, so one step object serves all its waits.

    An idle step refers to nothing of its actor: ``fn`` is dropped as
    it is called and the heap callback is the plain function, so an
    actor and its step never hold each other in a reference cycle.
    """

    __slots__ = ("fe", "fn", "_cbl")

    def __init__(self, fe):
        super().__init__(fe.env)
        self.fe = fe
        self.fn: Callable[[Any], None] | None = None
        self._cbl = [_Step._fire]

    def at(self, when: float, fn: Callable[[Any], None],
           value: Any = None) -> None:
        self.fn = fn
        self._value = value
        self.callbacks = self._cbl
        self.env.schedule_at(self, when)

    def first(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn`` where a new process's first step runs."""
        self.fn = fn
        Initialize(self.env, self._fire)

    def on(self, ev: Event, fn: Callable[[Any], None]) -> None:
        self.fn = fn
        ev.callbacks.append(self._fire)  # type: ignore[union-attr]

    def _fire(self, ev: Event | None = None) -> None:
        # ``ev`` is the event the step is hooked on, or None when the
        # step itself is dispatched (the engine passes it as ``self``)
        fe = self.fe
        fe._active = True
        fn, self.fn = self.fn, None
        fn((self if ev is None else ev)._value)
        owed = fe._owed
        while owed:
            fn, value = owed.popleft()
            fn(value)
        fe._active = False


def _later(step: _Step, fn: Callable[[Any], None], value: Any = None) -> None:
    """Run ``fn(value)`` where the process engine would dispatch a
    zero-delay wake-up pushed now: a hand-off (an inbox put waking the
    reader, a window re-open, an interrupt) or a process going on after
    yielding an event that is already processed.

    Inside a step, with nothing else queued at this instant, that
    wake-up would be dispatched right after the step and the wake-ups
    the step already owes: it joins the front end's ``_owed`` FIFO,
    drained before the step's dispatch returns, so no other component
    runs (or looks at the heap) while it is owed.  Otherwise ``step``
    carries it through the heap at ``now``, in the order the wake-up
    would have taken.  When it carries on the calling actor itself, it
    is called last in the step, so the FIFO runs it next, exactly where
    a process would have gone on inline, and the call stack stays flat.
    """
    fe = step.fe
    if fe._active and fe.env._may_continue_inline():
        fe._owed.append((fn, value))
    else:
        step.at(fe.env.now, fn, value)


class Connection:
    """One accepted connection; owned by a :class:`NetFrontend`."""

    def __init__(self, env: Environment, frontend, cfg: NetConfig,
                 conn_id: int, slow: bool = False):
        self.env = env
        self.fe = frontend
        self.cfg = cfg
        self.conn_id = conn_id
        self.slow = slow
        #: client -> server and server -> client bytes/s; a slow client
        #: runs both at ``slow_factor`` of the configured bandwidth
        self.client_bw = cfg.client_bandwidth * cfg.slow_factor if slow \
            else cfg.client_bandwidth
        self.server_bw = cfg.server_bandwidth * cfg.slow_factor if slow \
            else cfg.server_bandwidth
        #: wire: the network itself is not the bottleneck we model, so
        #: the inbox is unbounded — backpressure acts via the reader
        self.inbox: deque = deque()
        self.queue = Store(env, capacity=cfg.conn_queue)
        self.parser = RespParser()
        #: intended-start stamps for sent-but-not-yet-parsed commands
        #: (FIFO: frames come off the parser in send order)
        self._meta: deque[float] = deque()
        self.closed = False
        self.dropped = False
        self.max_queue_seen = 0
        #: reply wire bytes, oldest first (only with capture_replies)
        self.replies: list[bytes] = []
        self._outstanding = 0
        #: the client step waiting for the pipeline window, if any
        self._waiter: Callable[[Any], None] | None = None
        #: fragment boundary instants while a command is on the wire
        self._train: list[float] | None = None
        # client side: the group being sent and where to go after it
        self._cl = _Step(frontend)
        self._group: tuple = ()
        self._t_int = 0.0
        self._sent = 0
        self._data: bytes | None = None
        self._then: Callable[[Any], None] | None = None
        # reader: idle on an empty inbox until ``deliver``
        self._rd = _Step(frontend)
        self._reading = True
        self._in_parser = False
        self._whole = False
        self._chunk = None
        self._held = None
        self._dispatcher = env.process(self._dispatch_loop(),
                                       name=f"conn{conn_id}-dx")

    # ------------------------------------------------------------ client side
    def send(self, group, t_intended: float,
             then: Callable[[int], None]) -> None:
        """Transmit one op group, then ``then(sent)``: the number of
        commands actually put on the wire.

        Respects the pipeline window: at most ``pipeline_depth``
        commands of this connection are unanswered at once.
        """
        self._group = group
        self._t_int = t_intended
        self._sent = 0
        self._then = then
        self._send_next(None)

    def _send_next(self, _) -> None:
        group = self._group
        sent = self._sent
        if sent == len(group):
            self._then(sent)
            return
        if self._outstanding >= self.cfg.pipeline_depth and not self.closed:
            self._waiter = self._send_next
            return
        if self.closed:
            self.fe.unsent += len(group) - sent
            self._then(sent)
            return
        data = encode_command(group[sent])
        self._outstanding += 1
        self._meta.append(self._t_int)
        self.fe.issued += 1
        # the fragment train in closed form: boundaries accumulate
        # fragment by fragment (the float arithmetic a chain of
        # per-fragment timeouts performs), one entry delivers
        bw = self.client_bw
        frag = self.cfg.fragment_bytes
        t = self.env.now
        bounds = []
        for i in range(0, len(data), frag):
            t = t + min(frag, len(data) - i) / bw
            bounds.append(t)
        self._data = data
        self._train = bounds
        self._cl.at(t, self._delivered)

    def _delivered(self, _) -> None:
        """The train's last fragment landed, or the connection closed
        under it and this is the first boundary after the close."""
        self._train = None
        if self.closed:
            self.fe.unsent += len(self._group) - self._sent - 1
            self._then(self._sent)
            return
        data, self._data = self._data, None
        self.deliver(data)
        self._sent += 1
        _later(self._cl, self._send_next)

    def drain(self, then: Callable[[Any], None]) -> None:
        """``then(None)`` once every sent command has been answered."""
        self._then = then
        self._drain_check(None)

    def _drain_check(self, _) -> None:
        if self._outstanding > 0 and not self.closed:
            self._waiter = self._drain_check
            return
        self._then(None)

    def close(self, then: Callable[[Any], None]) -> None:
        """Graceful client-initiated close (after replies drained), then
        ``then(None)``."""
        if self.closed:
            then(None)
            return
        self.deliver(_CLOSE)
        _later(self._cl, then)

    def deliver(self, chunk) -> None:
        """The wire hands the reader one chunk (or the close sentinel)."""
        if self._reading:
            self._reading = False
            _later(self._rd, self._read, chunk)
        else:
            self.inbox.append(chunk)

    # ------------------------------------------------------------ internals
    def _wake_window(self) -> None:
        fn = self._waiter
        if fn is not None:
            self._waiter = None
            _later(self._cl, fn)

    def _mark_closed(self) -> None:
        """Set ``closed``.  A sender mid-train observes it at the first
        fragment boundary at or after this instant: the delivery entry
        already covers the last boundary, an earlier one needs a wake."""
        self.closed = True
        bounds = self._train
        if bounds is not None:
            t = next(b for b in bounds if b >= self.env.now)
            if t < bounds[-1]:
                # the delivery entry stays queued but runs nothing; a
                # fresh step carries the sender on from boundary t
                self._cl.callbacks = []
                self._cl = _Step(self.fe)
                self._cl.on(self.env.at(t), self._interrupted)

    def _interrupted(self, _) -> None:
        _later(self._cl, self._delivered)

    def _release(self) -> None:
        """At the front end's close: once nothing can run this
        connection again (closed, dispatcher gone, no fragment train
        left), drop what refers back to the front end and the client
        session, so neither is held in a reference cycle through it.
        Its counters and captured replies stay."""
        if self.closed and not self._dispatcher.is_alive \
                and self._train is None:
            self.fe = self._cl = self._rd = None
            self._then = self._waiter = None

    # ------------------------------------------------------------ reader
    def _read(self, chunk) -> None:
        """One chunk off the inbox."""
        if chunk is _CLOSE or self.closed:
            # graceful close: the dispatcher drains what's queued,
            # then exits on the sentinel
            if not self.closed:
                self._mark_closed()
                self._enqueue(_CLOSE, self._read_done)
                return
            self._read_done(None)
            return
        parser = self.parser
        # a whole chunk starts a frame; only bytes are hashable
        whole = type(chunk) is bytes and not parser.pending_bytes
        op = self.fe.decode_memo.get(chunk) if whole else None
        if op is not None:
            # the parser path's steps, without the parse
            self._in_parser = False
            if self.cfg.parse_cpu:
                self._rd.at(self.env.now + self.cfg.parse_cpu,
                            self._admit, op)
            else:
                self._admit(op)
            return
        parser.feed(chunk)
        self._in_parser = True
        self._whole = whole
        self._chunk = chunk
        self._parse(None)

    def _parse(self, _) -> None:
        try:
            done, value = self.parser.parse()
        except ProtocolError:
            self._drop_close()
            return
        if not done:
            self._next_chunk()
        elif self.cfg.parse_cpu:
            self._rd.at(self.env.now + self.cfg.parse_cpu, self._decode,
                        value)
        else:
            self._decode(value)

    def _decode(self, value) -> None:
        try:
            op = op_from_command(value)
        except ProtocolError:
            self._drop_close()
            return
        if self._whole and not self.parser.pending_bytes:
            # the chunk was this one frame
            self.fe.decode_memo.store(self._chunk, op, len(self._chunk))
        self._whole = False
        self._chunk = None
        self._admit(op)

    def _next_chunk(self) -> None:
        if self.inbox:
            _later(self._rd, self._read, self.inbox.popleft())
        else:
            self._reading = True

    def _admit(self, op) -> None:
        """Admit one decoded command under the backpressure policy."""
        fe = self.fe
        t_int = self._meta.popleft() if self._meta else self.env.now
        pol = self.cfg.policy
        if pol is BackpressurePolicy.BLOCK:
            # reader stalls: bytes pile up in the inbox and the
            # client's pipeline window eventually stops the source
            if fe.admission.try_acquire():
                self._enqueue((op, t_int, self.env.now), self._queued)
            else:
                self._held = (op, t_int)
                self._rd.on(fe.admission.wait(), self._acquire)
            return
        if len(self.queue.items) >= self.queue.capacity \
                or not fe.admission.try_acquire():
            if pol is BackpressurePolicy.SHED:
                fe.shed += 1
                self._outstanding -= 1
                self._wake_window()
                busy = encode(RespError(self.cfg.busy_message))
                if self.cfg.capture_replies:
                    self.replies.append(busy)
                self._rd.at(self.env.now + len(busy) / self.server_bw,
                            self._admitted)
            else:  # DROP
                fe.dropped_cmds += 1
                self._drop_close()
            return
        # admission held and room verified, so this put is accepted
        # at birth
        self._enqueue((op, t_int, self.env.now), self._queued)

    def _acquire(self, _) -> None:
        adm = self.fe.admission
        if not adm.try_acquire():
            self._rd.on(adm.wait(), self._acquire)
            return
        op, t_int = self._held
        self._held = None
        self._enqueue((op, t_int, self.env.now), self._queued)

    def _enqueue(self, item, then: Callable[[Any], None]) -> None:
        put = self.queue.put(item)
        if put.callbacks is not None:
            # queue full: wait for the dispatcher to take one
            self._rd.on(put, then)
        else:
            _later(self._rd, then)

    def _queued(self, _) -> None:
        self.max_queue_seen = max(self.max_queue_seen,
                                  len(self.queue.items))
        self._admitted(None)

    def _admitted(self, _) -> None:
        if self._in_parser:
            self._parse(None)
        else:
            self._next_chunk()

    def _read_done(self, _) -> None:
        self._wake_window()

    def _drop_close(self) -> None:
        """Server-initiated close: discard the queue, return admission
        slots, wake the client (which sees ``closed`` and reconnects).
        The reader reads no more."""
        fe = self.fe
        discarded = [it for it in self.queue.items if it is not _CLOSE]
        self.queue.items.clear()
        for _ in discarded:
            fe.admission.release()
        fe.dropped_cmds += len(discarded)
        # commands on the wire but never parsed are lost too
        fe.dropped_cmds += len(self._meta)
        self._meta.clear()
        self._mark_closed()
        self.dropped = True
        fe.dropped_conns += 1
        self.queue.put(_CLOSE)  # room guaranteed: queue just cleared
        self._wake_window()

    # ------------------------------------------------------------ dispatcher
    def _dispatch_loop(self) -> Generator:
        env = self.env
        fe = self.fe
        while True:
            item = yield self.queue.get()
            if item is _CLOSE:
                return
            op, t_int, t_enq = item
            rt = fe.rtrace
            ctx = None
            t_dispatch = env.now
            if rt is not None:
                # the trace opens at the *intended* start, so queueing
                # delay is part of the trace the same way it is part of
                # the reported latency
                ctx = rt.start_request(op.op, layer="net", t0=t_int,
                                       conn=self.conn_id)
                if t_enq > t_int:
                    rt.add_span("client_backlog", "net", t_int, t_enq)
                if t_dispatch > t_enq:
                    rt.add_span("conn_queue", "net", t_enq, t_dispatch)
            ok = False
            try:
                result = yield from fe.backend.execute(op)
                ok = True
            finally:
                if ctx is not None and not ok:
                    rt.finish_request(ctx, ok=False)
            if op.op == "GET":
                reply = encode(result)
            elif op.op == "SET":
                reply = encode("OK")
            else:
                reply = encode(int(bool(result)))
            if self.cfg.capture_replies:
                self.replies.append(reply)
            if not self.closed:
                sp = rt.open_span("reply_write", "net",
                                  bytes=len(reply)) if rt is not None \
                    else None
                yield env.timeout(len(reply) / self.server_bw)
                if rt is not None:
                    rt.close_span(sp)
            if ctx is not None:
                rt.finish_request(ctx, ok=True)
            fe.record_completion(op, t_int, env.now)
            fe.admission.release()
            self._outstanding -= 1
            self._wake_window()
