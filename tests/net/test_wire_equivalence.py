"""Differential oracle for the closed-form wire.

``Connection.send`` delivers a command with one event at the instant
its last fragment would have arrived.  The reference below is the
per-fragment sender it replaced — one timeout, one closed check and
one inbox put per ``fragment_bytes`` slice — kept here, and only here,
as the obviously-correct twin.  Both drive the same sessions against
the same front end; everything a client or a report can observe must
come out identical.
"""

import itertools

import pytest

from repro.imdb import ClientOp
from repro.imdb.resp import encode_command
from repro.net import BackpressurePolicy, NetConfig, NetFrontend
from repro.net.conn import Connection
from repro.sim import Environment, Event

SESSIONS = 4
GROUPS = 12          # per session
SPACING = 40e-6      # intended inter-arrival per session
LATE_BY = 300e-6     # the late session starts this far behind schedule
ONE_FRAGMENT = 64    # value bytes: a 93-ish byte SET
FIVE_FRAGMENTS = 2048  # value bytes: 4 full fragments + a 36-byte tail
DEFAULT_PARSE = NetConfig().parse_cpu  # well under one fragment time
SLOW_PARSE = 30e-6   # several fragment times: closes land mid-train


class FixedBackend:
    def __init__(self, env, service=50e-6):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return b"v" if op.op == "GET" else True


def reference_send(conn, group, t_intended):
    """The per-fragment sender (the parent of the closed-form train)."""
    sent = 0
    for op in group:
        while conn._outstanding >= conn.cfg.pipeline_depth \
                and not conn.closed:
            if conn._window_ev is None:
                conn._window_ev = Event(conn.env)
            yield conn._window_ev
        if conn.closed:
            conn.fe.unsent += len(group) - sent
            return sent
        data = encode_command(op)
        conn._outstanding += 1
        conn._meta.append(t_intended)
        conn.fe.issued += 1
        bw = conn._bandwidth(conn.cfg.client_bandwidth)
        frag = conn.cfg.fragment_bytes
        for i in range(0, len(data), frag):
            chunk = data[i:i + frag]
            yield conn.env.timeout(len(chunk) / bw)
            if conn.closed:
                conn.fe.unsent += len(group) - sent - 1
                return sent
            yield conn.inbox.put(chunk)
        sent += 1
    return sent


closed_form_send = Connection.send


def _group(session, i, value_bytes):
    """Mostly single SETs; every fourth slot is a GET+SET pair so the
    sender also crosses a command boundary inside one group."""
    key = b"s%d-%03d" % (session, i)
    op = ClientOp("SET", key, bytes([65 + session]) * value_bytes)
    return (ClientOp("GET", key), op) if i % 4 == 3 else (op,)


def drive(send, policy, slow_every, depth, value_bytes, parse_cpu):
    """SESSIONS reconnecting sessions, the last one behind schedule, into
    a backend a third as fast as the offered load: windows fill, queues
    overflow, and under DROP connections close under the senders."""
    env = Environment()
    cfg = NetConfig(policy=BackpressurePolicy(policy), conn_queue=4,
                    max_inflight=8, pipeline_depth=depth,
                    slow_every=slow_every, slow_factor=0.25,
                    parse_cpu=parse_cpu)
    fe = NetFrontend(env, FixedBackend(env), cfg)
    sends = []  # (session, slot, commands sent, return instant)

    def session(s):
        if s == SESSIONS - 1:
            yield env.timeout(LATE_BY)
        conn = None
        for i in range(GROUPS):
            t_int = i * SPACING
            if env.now < t_int:
                yield env.timeout(t_int - env.now)
            while conn is None or conn.closed:
                conn = yield from fe.listener.connect()
            sent = yield from send(conn, _group(s, i, value_bytes), t_int)
            sends.append((s, i, sent, env.now))
        if not conn.closed:
            yield from conn.drain()
            yield from conn.close()

    for s in range(SESSIONS):
        env.process(session(s), name=f"session{s}")
    env.run(until=0.05)
    return fe, sends, env.events_processed


@pytest.mark.parametrize(
    "policy,slow_every,depth,value_bytes,parse_cpu",
    list(itertools.product(("block", "shed", "drop"), (0, 1, 2),
                           (1, 8, 32), (ONE_FRAGMENT, FIVE_FRAGMENTS),
                           (DEFAULT_PARSE, SLOW_PARSE))))
def test_closed_form_matches_per_fragment(policy, slow_every, depth,
                                          value_bytes, parse_cpu):
    cell = (policy, slow_every, depth, value_bytes, parse_cpu)
    ref_fe, ref_sends, ref_events = drive(reference_send, *cell)
    fe, sends, events = drive(closed_form_send, *cell)
    assert sends == ref_sends          # return values and instants
    assert fe.completions == ref_fe.completions
    assert fe.stats() == ref_fe.stats()
    st = fe.stats()
    assert st["completed"] + st["shed"] + st["dropped_cmds"] \
        == st["issued"]
    assert st["issued"] > 0
    # the saving is dispatches: never more, and on multi-fragment
    # commands strictly fewer
    assert events <= ref_events
    if value_bytes == FIVE_FRAGMENTS:
        assert events < ref_events


def test_the_grid_reaches_mid_train_closes(monkeypatch):
    """The DROP cells are an oracle for the close-at-boundary rule only
    if connections really close under a train, and not always inside
    its first fragment: a reader that takes ``SLOW_PARSE`` per frame
    closes two fragments into the train that follows."""
    landed = set()  # index of the first boundary >= each close instant
    mark = Connection._mark_closed

    def spy(conn):
        if conn._train is not None:
            _sender, bounds = conn._train
            landed.add(sum(b < conn.env.now for b in bounds))
        mark(conn)

    monkeypatch.setattr(Connection, "_mark_closed", spy)
    fe, sends, _ = drive(closed_form_send, "drop", 0, 8, FIVE_FRAGMENTS,
                         SLOW_PARSE)
    assert fe.dropped_conns > 0
    assert {0, 1, 2} <= landed
    assert any(sent < len(_group(s, i, 1)) for s, i, sent, _ in sends)


@pytest.mark.parametrize("send", [reference_send, closed_form_send])
def test_drop_mid_train_wakes_sender_at_next_boundary(send):
    """Three pipelined GETs overflow a one-slot queue behind a slow
    backend, and the reader (15 us per frame) drops the connection while
    the sender is two fragments into a five-fragment SET.  The sender
    must learn of the close at the first fragment boundary at or after
    that instant (the third), not at the end of the train and not at
    the close instant itself."""
    env = Environment()
    cfg = NetConfig(policy=BackpressurePolicy.DROP, conn_queue=1,
                    pipeline_depth=8, parse_cpu=15e-6,
                    client_bandwidth=25e6)
    fe = NetFrontend(env, FixedBackend(env, service=1e-3), cfg)
    big = ClientOp("SET", b"big", b"x" * FIVE_FRAGMENTS)
    box = {}

    def client():
        conn = yield from fe.listener.connect()
        delivered = []
        for k in (b"a", b"b", b"c"):
            assert (yield from send(conn, (ClientOp("GET", k),), 0.0)) == 1
            delivered.append(env.now)
        sent = yield from send(conn, (big,), 0.0)
        box.update(conn=conn, delivered=delivered, sent=sent, woke=env.now)

    env.run(until=env.process(client(), name="client"))
    # the idle reader takes the first GET as it lands and the other two
    # back to back; the third finds the queue full
    closed_at = box["delivered"][0] + 3 * cfg.parse_cpu
    bounds, t = [], box["delivered"][2]
    frame = len(encode_command(big))
    for i in range(0, frame, cfg.fragment_bytes):
        t = t + min(cfg.fragment_bytes, frame - i) / cfg.client_bandwidth
        bounds.append(t)
    assert len(bounds) == 5
    assert bounds[1] < closed_at < bounds[2]
    assert box["conn"].dropped
    assert box["sent"] == 0
    assert box["woke"] == bounds[2]
    env.run(until=0.01)
    st = fe.stats()
    assert st["issued"] == 4 and st["unsent"] == 0
    assert (st["completed"], st["dropped_cmds"]) == (1, 3)
    assert st["completed"] + st["shed"] + st["dropped_cmds"] \
        == st["issued"]
