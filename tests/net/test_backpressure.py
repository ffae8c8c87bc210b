"""Backpressure-policy invariants under a burst.

One slow backend, a burst of commands far beyond the queue bound, all
three policies: each must hold the per-connection queue bound and the
server-wide admission limit, and each must account for every command
(completed + shed + dropped + unsent = issued intent).
"""

import pytest

from repro.imdb import ClientOp
from repro.imdb.resp import RespError, decode
from repro.net import BackpressurePolicy, NetConfig, NetFrontend
from repro.sim import Environment
from tests.net import client as tcl

BURST = 64
QUEUE = 4
INFLIGHT = 8


class SlowBackend:
    def __init__(self, env, service=500e-6):
        self.env = env
        self.service = service
        self.peak_concurrent = 0
        self._running = 0

    def execute(self, op):
        self._running += 1
        self.peak_concurrent = max(self.peak_concurrent, self._running)
        yield self.env.timeout(self.service)
        self._running -= 1
        return True if op.op != "GET" else b"v"


def _burst(policy, clients=4):
    """Fire BURST commands spread over `clients` connections at t~0."""
    env = Environment()
    be = SlowBackend(env)
    cfg = NetConfig(policy=BackpressurePolicy(policy), conn_queue=QUEUE,
                    max_inflight=INFLIGHT, pipeline_depth=BURST,
                    capture_replies=True)
    fe = NetFrontend(env, be, cfg)
    conns = []

    def opener():
        for _ in range(clients):
            c = yield from tcl.connect(fe.listener)
            conns.append(c)

    env.run(until=env.process(opener(), name="opener"))

    def client(c, base):
        for i in range(BURST // clients):
            yield from tcl.send(c, 
                (ClientOp("SET", b"%03d" % (base + i), b"v" * 64),),
                env.now)
        yield from tcl.drain(c)

    for n, c in enumerate(conns):
        env.process(client(c, n * (BURST // clients)), name=f"cl{n}")
    env.run(until=1.0)
    return fe, conns


@pytest.mark.parametrize("policy", ["block", "shed", "drop"])
def test_queue_bound_holds_under_burst(policy):
    fe, conns = _burst(policy)
    assert fe.max_conn_queue <= QUEUE
    assert fe.admission.peak <= INFLIGHT
    assert fe.admission.inflight == 0  # every slot returned


def test_block_completes_everything():
    fe, _ = _burst("block")
    st = fe.stats()
    assert st["completed"] == BURST
    assert st["shed"] == 0 and st["dropped_cmds"] == 0


def test_shed_returns_wellformed_busy_errors():
    fe, conns = _burst("shed")
    st = fe.stats()
    assert st["shed"] > 0
    assert st["completed"] + st["shed"] == st["issued"]
    assert st["dropped_conns"] == 0  # shedding never kills connections
    busy = [r for c in conns for r in c.replies
            if isinstance(decode(r), RespError)]
    assert len(busy) == st["shed"]
    for r in busy:
        err = decode(r)
        assert err.message.startswith("BUSY")
        assert r.startswith(b"-") and r.endswith(b"\r\n")


def test_drop_closes_connections_and_accounts_commands():
    fe, conns = _burst("drop")
    st = fe.stats()
    assert st["dropped_conns"] > 0
    assert any(c.dropped for c in conns)
    # every wire command is accounted for exactly once; commands the
    # clients still intended after the close are counted as unsent
    assert st["completed"] + st["dropped_cmds"] == st["issued"]
    assert st["issued"] + st["unsent"] == BURST


def test_block_stalls_the_reader_not_the_server():
    """BLOCK must bound what the backend ever sees concurrently."""
    env = Environment()
    be = SlowBackend(env)
    cfg = NetConfig(policy=BackpressurePolicy.BLOCK, conn_queue=QUEUE,
                    max_inflight=INFLIGHT, pipeline_depth=BURST)
    fe = NetFrontend(env, be, cfg)

    def run():
        c = yield from tcl.connect(fe.listener)
        for i in range(32):
            yield from tcl.send(c, (ClientOp("SET", b"%d" % i, b"v"),), env.now)
        yield from tcl.drain(c)

    env.run(until=env.process(run(), name="run"))
    assert be.peak_concurrent <= INFLIGHT


@pytest.mark.parametrize("policy", ["block", "shed", "drop"])
def test_burst_is_deterministic(policy):
    def once():
        fe, _ = _burst(policy)
        st = fe.stats()
        return tuple(sorted(st.items()))

    assert once() == once()
