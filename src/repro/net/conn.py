"""Per-connection state machines: framing, queues, backpressure.

A :class:`Connection` is one simulated TCP connection.  The client side
writes RESP2-encoded commands into the connection's inbox, each
arriving when the last of its ``fragment_bytes`` fragments would have
(paced by client bandwidth — slow clients trickle); the server side
runs two processes:

* a **reader** that feeds arriving chunks through a streaming
  :class:`~repro.imdb.resp.RespParser`, maps each complete frame to a
  :class:`~repro.imdb.server.ClientOp`, and *admits* it subject to the
  backpressure policy.  A chunk byte-equal to a frame the front end
  already decoded, arriving into an empty parser, takes that frame's
  op from the front end's ``decode_memo`` instead;
* a **dispatcher** that pops admitted commands off the bounded
  per-connection queue, executes them on the backend (a
  :class:`~repro.imdb.server.Server` or the cluster router — both
  expose the same ``execute`` generator), writes the RESP reply back at
  the client's drain rate, and completes the request.

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
from collections.abc import Generator

from repro.imdb.resp import (
    ProtocolError,
    RespError,
    encode,
    encode_command,
    op_from_command,
    RespParser,
)
from repro.sim import Environment, Event, Interrupt, Process, Store

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


class Connection:
    """One accepted connection; owned by a :class:`NetFrontend`."""

    def __init__(self, env: Environment, frontend, cfg: NetConfig,
                 conn_id: int, slow: bool = False):
        self.env = env
        self.fe = frontend
        self.cfg = cfg
        self.conn_id = conn_id
        self.slow = slow
        #: wire: the network itself is not the bottleneck we model, so
        #: the inbox is unbounded — backpressure acts via the reader
        self.inbox = Store(env)
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
        self._window_ev: Event | None = None
        #: (sender process, fragment boundary instants) while a
        #: command is on the wire
        self._train: tuple[Process, list[float]] | None = None
        self._reader = env.process(self._read_loop(),
                                   name=f"conn{conn_id}-rd")
        self._dispatcher = env.process(self._dispatch_loop(),
                                       name=f"conn{conn_id}-dx")

    # ------------------------------------------------------------ client side
    def send(self, group, t_intended: float) -> Generator:
        """Transmit one op group (generator; run from a client session).

        Respects the pipeline window: at most ``pipeline_depth``
        commands of this connection are unanswered at once.  Returns
        the number of commands actually put on the wire.
        """
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
            # the fragment train in closed form: boundaries accumulate
            # fragment by fragment (the float arithmetic a chain of
            # per-fragment timeouts performs), one event delivers
            bw = self._bandwidth(self.cfg.client_bandwidth)
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
        """Wait until every sent command has been answered."""
        while self._outstanding > 0 and not self.closed:
            if self._window_ev is None:
                self._window_ev = Event(self.env)
            yield self._window_ev

    def close(self) -> Generator:
        """Graceful client-initiated close (after replies drained)."""
        if not self.closed:
            yield self.inbox.put(_CLOSE)

    # ------------------------------------------------------------ internals
    def _bandwidth(self, bw: float) -> float:
        return bw * self.cfg.slow_factor if self.slow else bw

    def _wake_window(self) -> None:
        ev = self._window_ev
        if ev is not None:
            self._window_ev = None
            ev.succeed()

    def _mark_closed(self) -> None:
        """Set ``closed``.  A sender mid-train observes it at the first
        fragment boundary at or after this instant: the delivery event
        already covers the last boundary, an earlier one needs a wake."""
        self.closed = True
        if self._train is not None:
            sender, bounds = self._train
            t = next(b for b in bounds if b >= self.env.now)
            if t < bounds[-1]:
                self.env.at(t).callbacks.append(
                    lambda _ev: sender.interrupt())

    def _pay_write(self, nbytes: int) -> Generator:
        yield self.env.timeout(nbytes / self._bandwidth(
            self.cfg.server_bandwidth))

    # ------------------------------------------------------------ reader
    def _read_loop(self) -> Generator:
        env = self.env
        cfg = self.cfg
        parser = self.parser
        memo = self.fe.decode_memo
        while True:
            chunk = yield self.inbox.get()
            if chunk is _CLOSE or self.closed:
                # graceful close: the dispatcher drains what's queued,
                # then exits on the sentinel
                if not self.closed:
                    self._mark_closed()
                    yield self.queue.put(_CLOSE)
                self._wake_window()
                return
            # a whole chunk starts a frame; only bytes are hashable
            whole = type(chunk) is bytes and not parser.pending_bytes
            op = memo.get(chunk) if whole else None
            if op is not None:
                # the parser path's yields, without the parse
                if cfg.parse_cpu:
                    yield env.timeout(cfg.parse_cpu)
                t_int = self._meta.popleft() if self._meta else env.now
                yield from self._admit(op, t_int)
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
                    # the chunk was this one frame
                    memo.store(chunk, op, len(chunk))
                whole = False
                t_int = self._meta.popleft() if self._meta else env.now
                yield from self._admit(op, t_int)
                if self.dropped:
                    return

    def _admit(self, op, t_int: float) -> Generator:
        fe = self.fe
        pol = self.cfg.policy
        if pol is BackpressurePolicy.BLOCK:
            # reader stalls: bytes pile up in the inbox and the
            # client's pipeline window eventually stops the source
            yield from fe.admission.acquire()
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
                yield from self._pay_write(len(busy))
                return
            # admission held and room verified with no intervening
            # yield, so this put is accepted at birth
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

    def _drop_close(self) -> None:
        """Server-initiated close: discard the queue, return admission
        slots, wake the client (which sees ``closed`` and reconnects)."""
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
                yield from self._pay_write(len(reply))
                if rt is not None:
                    rt.close_span(sp)
            if ctx is not None:
                rt.finish_request(ctx, ok=True)
            fe.record_completion(op, t_int, env.now)
            fe.admission.release()
            self._outstanding -= 1
            self._wake_window()
