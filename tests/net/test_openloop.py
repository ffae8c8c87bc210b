"""Open-loop driver tests: schedules, knee detection, no omission."""

import numpy as np
import pytest

from repro.net import (
    MIXES,
    MixSpec,
    NetConfig,
    NetFrontend,
    OpenLoopPoint,
    OpStream,
    PoissonArrivals,
    curve_csv,
    detect_knee,
    run_open_loop,
    summarize_point,
)
from repro.sim import Environment


class FixedBackend:
    def __init__(self, env, service=20e-6):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return True if op.op != "GET" else b"v"


def _drive(rate, service=20e-6, duration=0.02, clients=8, **cfg_kw):
    env = Environment()
    be = FixedBackend(env, service=service)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8, **cfg_kw))
    times = PoissonArrivals(rate, seed=3).times(duration, t0=env.now)
    stream = OpStream(MIXES["ycsb_a"], len(times), 200, value_size=64,
                      seed=5)
    run_open_loop(env, fe, stream, times, clients=clients,
                  horizon=duration * 2 + 0.05)
    return summarize_point(fe, rate, len(times), duration)


def test_underload_completes_every_arrival():
    p = _drive(5_000)
    assert p.completed == p.issued
    assert p.completed >= p.arrivals  # RMW groups send 2 commands
    assert p.p999 < 1e-3


def test_latency_includes_queueing_no_coordinated_omission():
    """Offered load ~3x capacity: a closed-loop harness would report
    ~service-time latencies; the open loop must charge the backlog."""
    slow = _drive(15_000, service=200e-6, clients=2)
    assert slow.p999 > 10 * 200e-6
    assert slow.mean > 2 * 200e-6


def test_run_is_deterministic():
    a = _drive(20_000)
    b = _drive(20_000)
    assert a == b


def test_connection_churn_reconnects():
    env = Environment()
    be = FixedBackend(env)
    fe = NetFrontend(env, be, NetConfig(pipeline_depth=8))
    times = PoissonArrivals(10_000, seed=3).times(0.02, t0=env.now)
    stream = OpStream(MixSpec(read=1.0), len(times), 100, seed=5)
    run_open_loop(env, fe, stream, times, clients=4, horizon=0.1,
                  conn_lifetime=10)
    assert fe.listener.accepted > 4  # every client reconnected
    assert fe.completed == fe.issued


def test_summarize_point_phase_split():
    env = Environment()
    be = FixedBackend(env)
    fe = NetFrontend(env, be, NetConfig())
    # synthetic completions: slow ones inside the snapshot window
    for i in range(100):
        t = i * 1e-3
        fe.completions.append((t, t + (5e-3 if 0.02 <= t <= 0.04
                                       else 1e-4), "SET"))
    fe.issued = 100
    p = summarize_point(fe, 1_000, 100, 0.1,
                        snapshot_windows=[(0.02, 0.05)])
    assert p.completed_wal_snapshot > 0
    assert p.completed_wal_only + p.completed_wal_snapshot == 100
    assert p.p999_wal_snapshot > p.p999_wal_only


def _pt(offered, p999):
    return OpenLoopPoint(
        offered=offered, arrivals=100, issued=100, completed=100,
        shed=0, dropped_cmds=0, dropped_conns=0, refused=0,
        goodput=offered, mean=p999 / 2, p50=p999 / 4, p99=p999 * 0.9,
        p999=p999, p999_wal_only=p999, p999_wal_snapshot=p999,
        completed_wal_only=100, completed_wal_snapshot=0,
        peak_inflight=1, max_conn_queue=1)


def test_detect_knee_finds_first_blowup():
    pts = [_pt(10, 1e-4), _pt(20, 1.2e-4), _pt(40, 9e-4), _pt(80, 9e-3)]
    assert detect_knee(pts, factor=4.0) == 40


def test_detect_knee_flat_curve_is_none():
    pts = [_pt(10, 1e-4), _pt(20, 1.1e-4), _pt(40, 1.2e-4)]
    assert detect_knee(pts, factor=4.0) is None


def test_detect_knee_needs_two_points():
    assert detect_knee([_pt(10, 1e-4)]) is None


def test_curve_csv_round_trips():
    pts = [_pt(10, 1e-4), _pt(20, 2e-4)]
    csv = curve_csv(pts)
    lines = csv.strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "offered" and "p999" in header
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["offered"]) == 10
    assert float(row["p999"]) == pytest.approx(1e-4)


def test_clients_validation():
    env = Environment()
    fe = NetFrontend(env, FixedBackend(env))
    with pytest.raises(ValueError):
        run_open_loop(env, fe, OpStream(MixSpec(read=1.0), 1, 10),
                      np.zeros(1), clients=0, horizon=0.1)
