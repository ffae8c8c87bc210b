"""The step-driven client and reader against their process twin.

``run_open_loop``'s sessions and the connection reader run as steps
(``repro.net.conn._Step``); ``tests/net/twins.py`` keeps the generator
processes they replaced.  On seeded schedules drawn by hypothesis —
every backpressure policy, slow clients, pipeline depth 1 and 8,
connection churn against a listener small enough to refuse connects,
values long enough for closes to land mid-train, hostile frames that
drop their connection, captured replies and a request tracer — both
must produce the same completion tuples, stats, reply bytes and traced
spans, and move the clock through the same instants in the same order.
Half the schedules put arrivals on a grid of the service and parse
times, where entries of different actors meet on one instant and only
the order of same-instant steps decides what happens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.conn as conn_mod
from repro.imdb import ClientOp
from repro.imdb.resp import encode_command
from repro.net import (
    BackpressurePolicy,
    NetConfig,
    NetFrontend,
    PoissonArrivals,
    run_open_loop,
)
from repro.net.conn import Connection
from repro.obs.trace import RequestTracer
from tests.net import twins
from tests.net.twins import InstantLog, ProcessFrontend

#: a frame ``op_from_command`` rejects: its connection is dropped
HOSTILE = b"*1\r\n$8\r\nFLUSHALL\r\n"


def _encode(op):
    return HOSTILE if op.key.startswith(b"!") else encode_command(op)


class Backend:
    def __init__(self, env, service):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return b"v" * 8 if op.op == "GET" else True


class Stream:
    """Seeded groups: GETs, SETs of two sizes (one or five fragments),
    an occasional GET+SET pair and, if asked, hostile frames."""

    def __init__(self, seed, count, big, hostile):
        rng = np.random.default_rng(seed)
        self.groups = []
        for i in range(count):
            key = b"k%d" % rng.integers(0, 8)
            roll = rng.random()
            if hostile and roll < 0.03:
                self.groups.append((ClientOp("GET", b"!" + key),))
            elif roll < 0.4:
                self.groups.append((ClientOp("GET", key),))
            else:
                size = big if rng.random() < 0.5 else 40
                op = ClientOp("SET", key, bytes([65 + i % 26]) * size)
                self.groups.append((ClientOp("GET", key), op)
                                   if rng.random() < 0.1 else (op,))

    def group(self, i):
        return self.groups[i]


def run(twin, cell, monkeypatch):
    """One seeded open-loop run; everything the two paths must agree on."""
    monkeypatch.setattr(conn_mod, "encode_command", _encode)
    monkeypatch.setattr(twins, "encode_command", _encode)
    with twins.logging_dispatches():
        env = InstantLog()
        cfg = NetConfig(
            policy=BackpressurePolicy(cell["policy"]),
            pipeline_depth=cell["depth"], conn_queue=cell["queue"],
            max_inflight=cell["inflight"], accept_queue=cell["backlog"],
            accept_cost=cell["accept_cost"], slow_every=cell["slow_every"],
            slow_factor=0.25, parse_cpu=cell["parse_cpu"],
            capture_replies=cell["capture"])
        tracer = RequestTracer(env, sample_every=1) if cell["trace"] \
            else None
        fe = (ProcessFrontend if twin else NetFrontend)(
            env, Backend(env, cell["service"]), cfg, rtrace=tracer)
        if cell["grid"]:
            # arrivals on a grid of the service and parse times, so
            # entries of different actors often fall on one instant
            times = np.arange(0.0, cell["duration"], 1 / cell["rate"])
        else:
            times = PoissonArrivals(cell["rate"], seed=cell["seed"]).times(
                cell["duration"], t0=env.now)
        stream = Stream(cell["seed"], len(times), cell["big"],
                        cell["hostile"])
        drive = twins.run_process_open_loop if twin else run_open_loop
        drive(env, fe, stream, times, clients=cell["clients"],
              horizon=cell["duration"] * 3, conn_lifetime=cell["lifetime"])
    spans = None
    if tracer is not None:
        spans = [[(s.name, s.layer, s.t0, s.t1, s.ok) for s in ctx.spans]
                 for ctx in tracer.kept.values()]
    return {
        "completions": fe.completions,
        "stats": fe.stats(),
        "replies": [c.replies for c in fe.connections],
        "dropped": [c.dropped for c in fe.connections],
        "spans": spans,
        "instants": env.instants,
        "now": env.now,
    }, env.events_processed


cells = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "policy": st.sampled_from(["block", "shed", "drop"]),
    "depth": st.sampled_from([1, 8]),
    "queue": st.sampled_from([1, 4, 16]),
    "inflight": st.sampled_from([2, 8, 64]),
    "backlog": st.sampled_from([1, 2, 64]),
    "accept_cost": st.sampled_from([2e-6, 40e-6]),
    "slow_every": st.sampled_from([0, 1, 3]),
    "parse_cpu": st.sampled_from([0.0, 0.5e-6, 25e-6]),
    "capture": st.booleans(),
    "trace": st.booleans(),
    "service": st.sampled_from([5e-6, 25e-6, 50e-6]),
    "rate": st.sampled_from([20_000, 40_000, 80_000]),
    "grid": st.booleans(),
    "duration": st.sampled_from([2e-3, 6e-3]),
    "big": st.sampled_from([40, 2048]),
    "hostile": st.booleans(),
    "clients": st.integers(1, 6),
    "lifetime": st.sampled_from([None, 1, 3, 10]),
})


@settings(max_examples=200, deadline=None)
@given(cell=cells)
def test_steps_match_the_process_twin(cell):
    with pytest.MonkeyPatch.context() as mp:
        ref, ref_dispatches = run(True, cell, mp)
        got, dispatches = run(False, cell, mp)
    assert got == ref
    st_ = got["stats"]
    assert st_["completed"] + st_["shed"] + st_["dropped_cmds"] \
        <= st_["issued"]
    assert dispatches <= ref_dispatches


#: cells that between them reach every rare path the grid is meant to
#: cover (checked below, so a change to the strategy cannot lose them)
COVERING = [
    dict(seed=7, policy="drop", depth=8, queue=1, inflight=64, backlog=64,
         accept_cost=2e-6, slow_every=0, parse_cpu=25e-6, capture=True,
         trace=True, service=50e-6, rate=80_000, duration=6e-3, big=2048,
         grid=False, hostile=False, clients=2, lifetime=None),
    dict(seed=3, policy="block", depth=1, queue=4, inflight=2, backlog=1,
         accept_cost=40e-6, slow_every=3, parse_cpu=0.5e-6, capture=False,
         trace=False, service=5e-6, rate=80_000, duration=6e-3, big=40,
         grid=True, hostile=True, clients=6, lifetime=1),
    dict(seed=11, policy="shed", depth=8, queue=1, inflight=2, backlog=2,
         accept_cost=2e-6, slow_every=1, parse_cpu=0.0, capture=True,
         trace=True, service=50e-6, rate=80_000, duration=6e-3, big=2048,
         grid=False, hostile=True, clients=4, lifetime=3),
]


def test_covering_cells_reach_the_rare_paths(monkeypatch):
    """Mid-train closes, refused connects, protocol-error drops, shed
    replies and churn all happen on the covering cells, and the twin
    agrees on each."""
    cuts = []
    mark = Connection._mark_closed

    def spy(conn):
        bounds = conn._train
        if bounds is not None:
            cuts.append(next(b for b in bounds if b >= conn.env.now)
                        < bounds[-1])
        mark(conn)

    monkeypatch.setattr(Connection, "_mark_closed", spy)
    seen = {"refused": 0, "shed": 0, "dropped_conns": 0, "accepted": 0}
    hostile_drops = 0
    for cell in COVERING:
        ref, _ = run(True, cell, monkeypatch)
        got, _ = run(False, cell, monkeypatch)
        assert got == ref
        for k in seen:
            seen[k] += got["stats"][k]
        if cell["hostile"] and cell["policy"] != "drop":
            hostile_drops += got["stats"]["dropped_conns"]
    assert any(cuts)
    assert seen["refused"] > 0 and seen["shed"] > 0
    assert hostile_drops > 0
    assert seen["accepted"] > 3 * len(COVERING)  # churn reconnects
