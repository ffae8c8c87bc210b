"""Little's law (L = λ·W) as an oracle for the front end's accounting.

Open form: on seeded open-loop runs into a fixed-service backend, a
test-side wrapper around every dispatch integrates, over simulated
time, the server-wide admission count (``AdmissionController.inflight``)
and the admitted commands waiting in each connection's queue (its items
plus puts blocked on a full queue).  State moves only inside
dispatches and the backend never fast-forwards, so both integrals are
exact sums of piecewise-constant areas.  With λ the departures per
second and W their mean sojourn, L = λ·W must hold at each level up to
float rounding:

* admission: a command arrives when admitted (``try_acquire``
  succeeds) and departs when its slot is released — on completion, or
  when a DROP close discards it;
* queue: it arrives at that stamp and departs when the dispatcher
  takes it (or the close discards it); one the dispatcher takes as it
  is put never waits.

Runs start and end empty, so the window holds every sojourn whole.
Both the step-driven front end and its process twin are checked.

Closed form: on the TINY ``openloop`` cells (the real SlimIO server),
the time-average number of commands between intended start and
completion, swept from the completion tuples, equals the curve point's
completions per second of that window times its mean latency.
"""

import math

import numpy as np
import pytest

from repro.bench import experiments
from repro.bench.scales import TINY_SCALE
from repro.net import (
    MIXES,
    BackpressurePolicy,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    run_open_loop,
)
from repro.net.conn import _CLOSE
from repro.net.frontend import AdmissionController
from repro.sim import Event
from tests.net import twins


class Backend:
    def __init__(self, env, service=40e-6):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return b"v" if op.op == "GET" else True


class Integrator:
    """Areas under the admission count and the queued-command count,
    and every queued command's arrival and departure instants."""

    def __init__(self, fe):
        self.fe = fe
        self.t = 0.0
        self.inflight = 0
        self.inflight_area = 0.0
        self.queue_area = 0.0
        self.present = {}      # id(item) -> item, items queued now
        self.sojourns = []     # (t_enq, departure) per queued command
        self.admits = []       # instant of every admission
        self.releases = []     # instant of every admission release

    def before(self, now):
        dt = now - self.t
        self.inflight_area += self.inflight * dt
        self.queue_area += len(self.present) * dt
        self.t = now

    def after(self, now):
        self.inflight = self.fe.admission.inflight
        present = {}
        for conn in self.fe.connections:
            q = conn.queue
            for it in [*q.items, *(p.item for p in q._puts)]:
                if it is not _CLOSE:
                    present[id(it)] = it
        for key, it in self.present.items():
            if key not in present:
                self.sojourns.append((it[2], now))
        for key, it in present.items():
            if key not in self.present:
                assert it[2] == now  # stamped when it entered
        self.present = present


def run(twin, policy, slow_every, lifetime, monkeypatch):
    env = twins.InstantLog()
    cfg = NetConfig(policy=BackpressurePolicy(policy), pipeline_depth=8,
                    conn_queue=3, max_inflight=6, slow_every=slow_every,
                    slow_factor=0.2)
    fe = (twins.ProcessFrontend if twin else NetFrontend)(
        env, Backend(env), cfg)
    integ = Integrator(fe)
    run_callbacks = Event._run_callbacks
    acquire = AdmissionController.try_acquire
    release = AdmissionController.release

    def watched(event):
        integ.before(event.env.now)
        run_callbacks(event)
        integ.after(event.env.now)

    def acquired(adm):
        ok = acquire(adm)
        if ok:
            integ.admits.append(env.now)
        return ok

    def released(adm):
        integ.releases.append(env.now)
        release(adm)

    monkeypatch.setattr(Event, "_run_callbacks", watched)
    monkeypatch.setattr(AdmissionController, "try_acquire", acquired)
    monkeypatch.setattr(AdmissionController, "release", released)
    times = PoissonArrivals(60_000, seed=9).times(0.01, t0=env.now)
    stream = OpStream(MIXES["ycsb_a"], len(times), 64, value_size=600,
                      seed=9)
    drive = twins.run_process_open_loop if twin else run_open_loop
    drive(env, fe, stream, times, clients=6, horizon=0.2,
          conn_lifetime=lifetime)
    monkeypatch.undo()
    return fe, integ, env.now


def _little(area, horizon, sojourn_sum, departures):
    L = area / horizon
    lam = departures / horizon
    W = sojourn_sum / departures
    assert math.isclose(L, lam * W, rel_tol=1e-9), (L, lam, W)


@pytest.mark.parametrize("twin", [False, True], ids=["steps", "twin"])
@pytest.mark.parametrize("policy,slow_every,lifetime", [
    ("block", 0, None), ("shed", 0, None), ("drop", 0, None),
    ("block", 2, None), ("shed", 3, 5), ("drop", 2, 5), ("block", 0, 5),
])
def test_open_form_holds_at_both_levels(twin, policy, slow_every,
                                        lifetime, monkeypatch):
    fe, integ, horizon = run(twin, policy, slow_every, lifetime,
                             monkeypatch)
    st = fe.stats()
    assert st["completed"] > 0
    # every sojourn is whole: the run ends empty
    assert fe.admission.inflight == 0 and not integ.present
    n = len(integ.admits)
    assert n == len(integ.releases)
    # queue level: dispatch (or discard) minus enqueue; a command the
    # dispatcher takes as it is put never waits (a zero sojourn)
    assert len(integ.sojourns) < n
    _little(integ.queue_area, horizon,
            sum(b - a for a, b in integ.sojourns), n)
    # admission level: release minus admit; completions are releases
    _little(integ.inflight_area, horizon,
            sum(integ.releases) - sum(integ.admits), n)
    done = sorted(c[1] for c in fe.completions)
    assert len(done) == st["completed"]
    if policy != "drop":
        assert done == sorted(integ.releases)
    else:
        # a discarded command departs uncompleted
        assert set(done) <= set(integ.releases)
        assert st["dropped_conns"] > 0
    if policy == "shed":
        assert st["shed"] > 0  # shed commands never arrive


#: the TINY ``openloop`` cells: the Poisson sweep and the three
#: backpressure policies past the knee
TINY_CELLS = [dict(rate=r) for r in experiments._OPENLOOP_RATES] + [
    dict(rate=experiments._OPENLOOP_OVERLOAD_RATE, policy=p)
    for p in ("block", "shed", "drop")]


@pytest.mark.parametrize("cell", TINY_CELLS,
                         ids=lambda c: "-".join(map(str, c.values())))
def test_closed_form_on_tiny_openloop_cells(cell):
    point, fe, _ = experiments._openloop_run(TINY_SCALE, **cell)
    t_int = np.array([c[0] for c in fe.completions])
    t_done = np.array([c[1] for c in fe.completions])
    start, end = float(t_int.min()), float(t_done.max())
    # L: sweep the starts and completions in time order
    steps = sorted([(t, 1) for t in t_int] + [(t, -1) for t in t_done])
    area, n, prev = 0.0, 0, start
    for t, d in steps:
        area += n * (t - prev)
        n, prev = n + d, t
    assert n == 0
    L = area / (end - start)
    lam = point.completed / (end - start)
    assert math.isclose(L, lam * point.mean, rel_tol=1e-9)
