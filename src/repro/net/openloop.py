"""Open-loop load driver: offered-load sweeps and knee detection.

The driver realizes one arrival schedule against one system: arrivals
are split round-robin across ``clients`` sessions, each owning one
connection (reconnecting on drop/churn).  A session sleeps until the
arrival's *intended* instant, then transmits the op group — if the
session is running late (pipeline window stalled, connection dropped),
the group goes out late but keeps its intended stamp, so the measured
latency includes every source of queueing.  This is the wrk2
"constant throughput" discipline: the load generator never lets the
server's slowness quietly thin the schedule.

A sweep runs the same schedule shape at increasing rates on fresh
systems and reports p50/p99/p999 and goodput per offered load; the
*saturation knee* is the first offered load whose p999 exceeds
``knee_factor`` × the best p999 on the curve — left of it latency is
flat, right of it the queue grows without bound and percentiles are
set by the horizon, not the service time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator, Sequence

import numpy as np

from repro.net.conn import Connection
from repro.net.frontend import NetFrontend
from repro.net.ops import OpStream
from repro.persist.snapshot import SnapshotKind
from repro.sim import Environment

__all__ = [
    "OpenLoopPoint",
    "run_open_loop",
    "summarize_point",
    "detect_knee",
    "curve_csv",
]

#: sim seconds a session waits before retrying a refused connect
RECONNECT_BACKOFF = 100e-6


@dataclass
class OpenLoopPoint:
    """One offered-load point of the latency-vs-load curve."""

    offered: float            # arrival rate requested (groups/s)
    arrivals: int             # groups scheduled
    issued: int               # commands put on the wire
    completed: int
    shed: int
    dropped_cmds: int
    dropped_conns: int
    refused: int
    goodput: float            # completed commands / horizon
    mean: float
    p50: float
    p99: float
    p999: float
    p999_wal_only: float
    p999_wal_snapshot: float
    completed_wal_only: int
    completed_wal_snapshot: int
    peak_inflight: int
    max_conn_queue: int


def _session(env: Environment, fe: NetFrontend, stream: OpStream,
             times: np.ndarray, indices: Sequence[int],
             conn_lifetime: int | None) -> Generator:
    conn: Connection | None = None
    groups_on_conn = 0
    for i in indices:
        t_int = float(times[i])
        if env.now < t_int:
            yield env.timeout(t_int - env.now)
        while conn is None or conn.closed:
            conn = yield from fe.listener.connect()
            if conn is None:
                yield env.timeout(RECONNECT_BACKOFF)
            groups_on_conn = 0
        yield from conn.send(stream.group(i), t_int)
        groups_on_conn += 1
        if conn_lifetime is not None and groups_on_conn >= conn_lifetime:
            # connection churn: drain replies, close, reconnect lazily
            yield from conn.drain()
            yield from conn.close()
    if conn is not None and not conn.closed:
        yield from conn.drain()
        yield from conn.close()


def run_open_loop(env: Environment, fe: NetFrontend, stream: OpStream,
                  times: np.ndarray, *, clients: int,
                  horizon: float, servers: Sequence = (),
                  snapshot_at: float | None = None,
                  conn_lifetime: int | None = None) -> None:
    """Drive the whole schedule; returns once ``horizon`` sim-seconds
    have elapsed (whether or not every command completed — under
    overload the honest answer is "it didn't")."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    for k in range(clients):
        idx = range(k, len(times), clients)
        env.process(
            _session(env, fe, stream, times, idx, conn_lifetime),
            name=f"openloop-client{k}")
    if snapshot_at is not None and servers:
        def _snap() -> Generator:
            yield env.timeout(snapshot_at)
            for s in servers:
                s.start_snapshot(SnapshotKind.ON_DEMAND)
        env.process(_snap(), name="openloop-snapshot")
    env.run(until=env.now + horizon)
    fe.close()


def _pct(lat: np.ndarray, q: float) -> float:
    if len(lat) == 0:
        return 0.0
    return float(np.percentile(lat, q))


def summarize_point(fe: NetFrontend, offered: float, arrivals: int,
                    horizon: float,
                    snapshot_windows: Sequence[tuple[float, float]] = (),
                    ) -> OpenLoopPoint:
    """Reduce one run's completions to a curve point, split into
    WAL-only vs WAL&Snapshot phases by completion time."""
    comp = fe.completions
    if comp:
        t_int = np.array([c[0] for c in comp])
        t_done = np.array([c[1] for c in comp])
        lat = t_done - t_int
    else:
        t_done = np.empty(0)
        lat = np.empty(0)
    in_snap = np.zeros(len(lat), dtype=bool)
    for a, b in snapshot_windows:
        in_snap |= (t_done >= a) & (t_done <= b)
    st = fe.stats()
    return OpenLoopPoint(
        offered=offered,
        arrivals=arrivals,
        issued=int(st["issued"]),
        completed=len(lat),
        shed=int(st["shed"]),
        dropped_cmds=int(st["dropped_cmds"]),
        dropped_conns=int(st["dropped_conns"]),
        refused=int(st["refused"]),
        goodput=len(lat) / horizon if horizon > 0 else 0.0,
        mean=float(lat.mean()) if len(lat) else 0.0,
        p50=_pct(lat, 50.0),
        p99=_pct(lat, 99.0),
        p999=_pct(lat, 99.9),
        p999_wal_only=_pct(lat[~in_snap], 99.9),
        p999_wal_snapshot=_pct(lat[in_snap], 99.9),
        completed_wal_only=int((~in_snap).sum()),
        completed_wal_snapshot=int(in_snap.sum()),
        peak_inflight=int(st["peak_inflight"]),
        max_conn_queue=int(st["max_conn_queue"]),
    )


def detect_knee(points: Sequence[OpenLoopPoint],
                factor: float = 4.0) -> float | None:
    """The saturation knee: the lowest offered load whose p999 exceeds
    ``factor`` × the best (lowest) p999 on the curve.  ``None`` when
    the whole sweep stays flat (never pushed past saturation)."""
    with_lat = [p for p in points if p.completed > 0]
    if len(with_lat) < 2:
        return None
    floor = min(p.p999 for p in with_lat)
    if floor <= 0.0:
        return None
    for p in sorted(with_lat, key=lambda p: p.offered):
        if p.p999 > factor * floor:
            return p.offered
    return None


_CSV_FIELDS = (
    "offered", "arrivals", "issued", "completed", "shed", "dropped_cmds",
    "dropped_conns", "refused", "goodput", "mean", "p50", "p99", "p999",
    "p999_wal_only", "p999_wal_snapshot", "completed_wal_only",
    "completed_wal_snapshot", "peak_inflight", "max_conn_queue",
)


def curve_csv(points: Sequence[OpenLoopPoint]) -> str:
    """The latency-vs-offered-load curve as a CSV string (the net-smoke
    CI artifact)."""
    lines = [",".join(_CSV_FIELDS)]
    for p in points:
        row = []
        for f in _CSV_FIELDS:
            v = getattr(p, f)
            row.append(f"{v:.9g}" if isinstance(v, float) else str(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
