"""Listener and admission-controller tests."""

from repro.imdb import ClientOp
from repro.net import NetConfig, NetFrontend
from repro.net.frontend import AdmissionController
from repro.sim import Environment
from tests.net import client as tcl, twins


class NullBackend:
    def __init__(self, env):
        self.env = env

    def execute(self, op):
        yield self.env.timeout(1e-6)
        return True


def test_admission_try_acquire_bounds_inflight():
    env = Environment()
    a = AdmissionController(env, limit=2)
    assert a.try_acquire() and a.try_acquire()
    assert not a.try_acquire()
    assert a.rejections == 1
    a.release()
    assert a.try_acquire()
    assert a.peak == 2


def test_admission_blocking_acquire_wakes_in_turn():
    """A refused acquirer waits on ``wait()`` and tries again: waiters
    get the released slots in the order they came."""
    env = Environment()
    a = AdmissionController(env, limit=1)
    order = []

    def holder():
        yield from twins.acquire(a)
        order.append("holder")
        yield env.timeout(1e-3)
        a.release()

    def waiter(name):
        yield from twins.acquire(a)
        order.append(name)
        yield env.timeout(1e-3)
        a.release()

    env.process(holder(), name="holder")
    env.process(waiter("w1"), name="w1")
    env.process(waiter("w2"), name="w2")
    env.run(until=0.1)
    assert order == ["holder", "w1", "w2"]
    assert a.inflight == 0


def test_backlog_refuses_when_full():
    env = Environment()
    be = NullBackend(env)
    # accept is slow, backlog tiny: a connect storm must see refusals
    fe = NetFrontend(env, be, NetConfig(accept_queue=2, accept_cost=1e-3))
    got = []

    def one():
        c = yield from tcl.connect(fe.listener)
        got.append(c)

    for i in range(8):  # concurrent storm: all hit the backlog at t=0
        env.process(one(), name=f"storm{i}")
    env.run(until=0.1)
    refused = sum(1 for c in got if c is None)
    assert refused > 0
    assert fe.listener.refused == refused
    assert fe.listener.accepted == 8 - refused


def test_accepts_are_serialized_by_accept_cost():
    env = Environment()
    be = NullBackend(env)
    fe = NetFrontend(env, be, NetConfig(accept_cost=1e-3, accept_queue=64))
    stamps = []

    def one():
        c = yield from tcl.connect(fe.listener)
        stamps.append((env.now, c))

    for i in range(3):
        env.process(one(), name=f"c{i}")
    env.run(until=0.1)
    times = sorted(t for t, _ in stamps)
    assert times[1] - times[0] >= 1e-3 - 1e-9
    assert times[2] - times[1] >= 1e-3 - 1e-9


def test_slow_every_marks_every_nth_connection():
    env = Environment()
    be = NullBackend(env)
    fe = NetFrontend(env, be, NetConfig(slow_every=3))
    conns = []

    def opener():
        for _ in range(6):
            conns.append((yield from tcl.connect(fe.listener)))

    env.run(until=env.process(opener(), name="opener"))
    assert [c.slow for c in conns] == [False, False, True,
                                       False, False, True]


def test_stats_keys_stable():
    env = Environment()
    fe = NetFrontend(env, NullBackend(env))
    assert set(fe.stats()) == {
        "issued", "completed", "shed", "dropped_conns", "dropped_cmds",
        "unsent", "refused", "accepted", "peak_inflight",
        "admission_rejections", "max_conn_queue",
    }


def test_close_stops_accepting():
    env = Environment()
    be = NullBackend(env)
    fe = NetFrontend(env, be, NetConfig())

    def run():
        c = yield from tcl.connect(fe.listener)
        yield from tcl.send(c, (ClientOp("SET", b"k", b"v"),), env.now)
        yield from tcl.drain(c)

    env.run(until=env.process(run(), name="run"))
    fe.close()
    env.run(until=env.now + 0.01)
    assert fe.completed == 1
