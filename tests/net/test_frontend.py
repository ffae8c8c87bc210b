"""Listener and admission-controller tests."""

import gc
import weakref

import pytest

from repro.imdb import ClientOp
from repro.net import (
    MIXES,
    BackpressurePolicy,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    run_open_loop,
)
from repro.net.frontend import AdmissionController
from repro.sim import Environment
from tests.net import client as tcl, twins


class NullBackend:
    def __init__(self, env, service=1e-6):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return b"v" if op.op == "GET" else True


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
    accepted = []
    fe.close()  # idle: the accept loop is parked on an empty backlog
    assert not fe.listener.connect(accepted.append)
    env.run(until=env.now + 0.01)
    assert fe.completed == 1
    assert accepted == []
    assert (fe.listener.accepted, fe.listener.refused) == (1, 1)

    # busy: closed while the accept loop is in the middle of an accept;
    # the connect queued before the close is accepted, the later one is
    # refused, as after an idle close
    fe = NetFrontend(env, be, NetConfig(accept_cost=1e-3))
    assert fe.listener.connect(accepted.append)
    env.run(until=env.now + 1e-4)
    fe.close()
    assert not fe.listener.connect(accepted.append)
    env.run(until=env.now + 0.01)
    assert len(accepted) == 1
    assert (fe.listener.accepted, fe.listener.refused) == (1, 1)


@pytest.fixture
def collector_off():
    """Reference counting alone: whatever a cycle holds stays alive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _finished_run(env, backend, cfg):
    """One open-loop run that completes (every session sends, drains
    and closes); returns a weak reference to its front end and what
    the run reported, read after ``run_open_loop`` closed it."""
    fe = NetFrontend(env, backend, cfg)
    times = PoissonArrivals(60_000, seed=3).times(0.01, t0=env.now)
    stream = OpStream(MIXES["ycsb_a"], len(times), 100, value_size=256,
                      seed=5)
    run_open_loop(env, fe, stream, times, clients=6, horizon=1.0,
                  conn_lifetime=20)
    read = (len(fe.completions), fe.stats(), fe.max_conn_queue,
            [c.replies for c in fe.connections])
    return weakref.ref(fe), read


@pytest.mark.parametrize("policy", ["block", "shed", "drop"])
@pytest.mark.parametrize("slow_every", [0, 3])
def test_a_finished_front_end_needs_no_cycle_collector(collector_off,
                                                      policy, slow_every):
    """Once its run is over and it is closed, the front end, its
    listener, connections and sessions are freed by reference counting
    (connection churn and, with DROP, server closes included), and
    everything its callers read after the run still reads."""
    env = Environment()
    # a slow backend behind small queues: SHED sheds, DROP drops
    cfg = NetConfig(pipeline_depth=4, conn_queue=2, max_inflight=8,
                    policy=BackpressurePolicy(policy),
                    slow_every=slow_every, capture_replies=True)
    ref, (completed, stats, max_q, replies) = _finished_run(
        env, NullBackend(env, service=400e-6), cfg)
    assert ref() is None
    assert completed == stats["completed"] > 0
    assert stats["max_conn_queue"] == max_q >= 1
    assert sum(map(len, replies)) == completed + stats["shed"]
    assert (stats["shed"] > 0) == (policy == "shed")
    assert (stats["dropped_conns"] > 0) == (policy == "drop")


def test_a_finished_front_end_on_a_real_server_is_freed(collector_off):
    """The same over a SlimIO server, whatever the stopped system
    itself leaves for the collector."""
    from repro.bench.scales import TINY_SCALE
    from repro.core import build_slimio

    system = build_slimio(config=TINY_SCALE.system_config(
        gc_pressure=False, trigger=False))
    ref, (completed, *_) = _finished_run(
        system.env, system.server, NetConfig(pipeline_depth=8))
    system.stop()
    assert completed > 0 and ref() is None
