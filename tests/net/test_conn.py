"""Connection state-machine tests against a controllable fake backend."""

import pytest

from repro.imdb import ClientOp
from repro.imdb.resp import decode
from repro.net import NetConfig, NetFrontend
from repro.net.conn import Connection
from repro.sim import Environment
from tests.net import client as tcl


class FakeBackend:
    """Fixed service time per op; remembers what it executed."""

    def __init__(self, env, service=50e-6):
        self.env = env
        self.service = service
        self.executed: list[ClientOp] = []

    def execute(self, op):
        yield self.env.timeout(self.service)
        self.executed.append(op)
        if op.op == "GET":
            return b"value-of-" + op.key
        return True


def _connect(env, fe):
    box = {}

    def go():
        box["conn"] = yield from tcl.connect(fe.listener)

    env.run(until=env.process(go(), name="connect"))
    return box["conn"]


def _run_groups(env, conn, groups):
    def client():
        for g in groups:
            yield from tcl.send(conn, g, env.now)
        yield from tcl.drain(conn)
        yield from tcl.close(conn)

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.05)


def test_commands_flow_end_to_end():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig(capture_replies=True))
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"k1", b"v1"),),
              (ClientOp("GET", b"k1"),),
              (ClientOp("DEL", b"k1"),)]
    _run_groups(env, conn, groups)
    assert [op.op for op in be.executed] == ["SET", "GET", "DEL"]
    assert fe.completed == 3
    assert decode(conn.replies[0]) == "OK"
    assert decode(conn.replies[1]) == b"value-of-k1"
    assert decode(conn.replies[2]) == 1


def test_pipeline_window_caps_outstanding():
    env = Environment()
    be = FakeBackend(env, service=1e-3)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=2, conn_queue=64,
                                        max_inflight=64))
    conn = _connect(env, fe)
    seen = []

    def client():
        for i in range(6):
            yield from tcl.send(conn, (ClientOp("GET", b"%d" % i),), env.now)
            seen.append(conn._outstanding)
        yield from tcl.drain(conn)
        yield from tcl.close(conn)

    env.run(until=env.process(client(), name="client"))
    assert max(seen) <= 2
    assert fe.completed == 6


def test_fragmented_frames_reassemble():
    """A 4 KiB SET crosses many 512 B fragments; exactly one command
    must come out the other side."""
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig(fragment_bytes=512))
    conn = _connect(env, fe)
    _run_groups(env, conn, [(ClientOp("SET", b"big", b"x" * 4096),)])
    assert len(be.executed) == 1
    assert be.executed[0].value == b"x" * 4096


def test_slow_client_pays_bandwidth():
    def run(slow_every):
        env = Environment()
        be = FakeBackend(env, service=1e-6)
        fe = NetFrontend(env, be, NetConfig(slow_every=slow_every,
                                            slow_factor=0.01))
        conn = _connect(env, fe)
        assert conn.slow == (slow_every == 1)
        t0 = env.now
        _run_groups(env, conn, [(ClientOp("SET", b"k", b"v" * 2048),)])
        done = [c for c in fe.completions]
        return done[0][1] - t0

    assert run(1) > 50 * run(0)


def test_protocol_error_drops_connection():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield tcl.put(conn, b":not-an-int\r\n")

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    assert conn.dropped and conn.closed
    assert fe.dropped_conns == 1


def test_unsupported_command_drops_connection():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield tcl.put(conn, b"*1\r\n$8\r\nFLUSHALL\r\n")

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    assert conn.dropped
    assert fe.dropped_conns == 1


@pytest.mark.parametrize("flag,arg", [(b"PX", b"abc"), (b"PX", b"0"),
                                      (b"EX", b"-5")])
def test_set_with_trailing_words_drops_connection(monkeypatch, flag, arg):
    """A hostile ``SET k v PX abc`` frame drop-closes its connection
    like every other unsupported command; the run goes on."""
    closes = []
    drop_close = Connection._drop_close

    def spy(conn):
        closes.append(conn)
        drop_close(conn)

    monkeypatch.setattr(Connection, "_drop_close", spy)
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)
    frame = b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n" \
        + b"$2\r\n%s\r\n$%d\r\n%s\r\n" % (flag, len(arg), arg)

    def client():
        yield tcl.put(conn, frame)

    env.run(until=env.process(client(), name="client"))
    env.run(until=env.now + 0.01)
    assert closes == [conn]
    assert conn.dropped and conn.closed
    assert fe.dropped_conns == 1
    assert be.executed == []


def test_send_on_closed_connection_counts_unsent():
    env = Environment()
    be = FakeBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    conn = _connect(env, fe)

    def client():
        yield from tcl.close(conn)
        yield env.timeout(1e-3)
        sent = yield from tcl.send(conn, (ClientOp("GET", b"k"),), env.now)
        assert sent == 0

    env.run(until=env.process(client(), name="client"))
    assert fe.unsent == 1
    assert fe.completed == 0


def test_graceful_close_drains_queued_commands():
    """close() after sends: everything already queued still executes."""
    env = Environment()
    be = FakeBackend(env, service=200e-6)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8))
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"%d" % i, b"v"),) for i in range(5)]
    _run_groups(env, conn, groups)
    assert fe.completed == 5
    assert not conn.dropped


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(conn_queue=0)
    with pytest.raises(ValueError):
        NetConfig(pipeline_depth=0)
    with pytest.raises(ValueError):
        NetConfig(slow_factor=0.0)
    with pytest.raises(ValueError):
        NetConfig(max_inflight=0)


def test_net_spans_cover_queue_residency():
    from repro.obs.trace import RequestTracer

    env = Environment()
    be = FakeBackend(env, service=100e-6)
    tracer = RequestTracer(env, sample_every=1)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8), rtrace=tracer)
    conn = _connect(env, fe)
    groups = [(ClientOp("SET", b"%d" % i, b"v"),) for i in range(4)]
    _run_groups(env, conn, groups)
    kept = list(tracer.kept.values())
    assert kept
    roots = [ctx.root for ctx in kept]
    assert all(r is not None and r.layer == "net" for r in roots)
    # later requests waited behind the first: queue spans must exist
    names = {s.name for ctx in kept for s in ctx.spans}
    assert "conn_queue" in names or "client_backlog" in names
    assert "reply_write" in names


def test_dispatches_per_command_are_pinned():
    """A command costs the same heap dispatches whatever its size: one
    delivery entry, not a timeout + hand-back + reader wake-up for each
    512-byte fragment (a 2 KiB SET used to cost 23), and no zero-delay
    wake-up the heap would dispatch next anyway (the reader's on the
    inbox put, the sender's hand-back).  Seven: delivery, parse, the
    dispatcher's wake-up, the reader's step behind it, service, reply
    write, and the drain's window re-open (the process session and
    reader cost 11).  Counted, not timed, so a cost that creeps back
    in fails exactly."""
    def dispatches(op):
        env = Environment()
        fe = NetFrontend(env, FakeBackend(env), NetConfig())
        conn = _connect(env, fe)
        before = env.events_processed
        done = []
        conn.send((op,), env.now, lambda _n: conn.drain(done.append))
        env.run()
        assert fe.completed == 1 and done == [None]
        return env.events_processed - before

    assert dispatches(ClientOp("GET", b"k")) == 7
    assert dispatches(ClientOp("SET", b"k", b"v" * 2048)) == 7
