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

from repro.net.conn import Connection, _Step
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


class _Session:
    """One client session as a chain of steps (see :mod:`repro.net.conn`).

    It sleeps until each arrival's intended instant, (re)connects when
    it has no open connection — backing off ``RECONNECT_BACKOFF`` after
    a refusal — and sends the arrival's group; with ``conn_lifetime``
    it drains and closes the connection every that many groups.  At
    the end of its arrivals it drains and closes.  It starts where a
    process would: at this instant, ahead of ordinary entries.
    """

    def __init__(self, fe: NetFrontend, stream: OpStream,
                 times: np.ndarray, indices: Sequence[int],
                 conn_lifetime: int | None):
        self.env = fe.env
        self.fe = fe
        self.stream = stream
        self.times = times
        self.conn_lifetime = conn_lifetime
        self.conn: Connection | None = None
        self._todo = iter(indices)
        self._i = 0
        self._t_int = 0.0
        self._groups_on_conn = 0
        self._step = _Step(fe)
        self._step.first(self._next)

    def _next(self, _) -> None:
        i = next(self._todo, None)
        if i is None:
            # done with the schedule: let it go with the process this
            # session replaces, not when the cycle collector finds it
            self.stream = self.times = self._todo = None
            conn = self.conn
            if conn is not None and not conn.closed:
                conn.drain(self._close_last)
            return
        self._i = i
        t_int = self._t_int = float(self.times[i])
        now = self.env.now
        if now < t_int:
            self._step.at(now + (t_int - now), self._arrived)
        else:
            self._arrived(None)

    def _arrived(self, _) -> None:
        conn = self.conn
        if conn is not None and not conn.closed:
            conn.send(self.stream.group(self._i), self._t_int, self._sent)
        elif not self.fe.listener.connect(self._connected):
            self.conn = None
            self._step.at(self.env.now + RECONNECT_BACKOFF, self._backoff)

    def _backoff(self, _) -> None:
        self._groups_on_conn = 0
        self._arrived(None)

    def _connected(self, conn: Connection) -> None:
        self.conn = conn
        self._groups_on_conn = 0
        self._arrived(None)

    def _sent(self, _) -> None:
        self._groups_on_conn += 1
        if self.conn_lifetime is not None \
                and self._groups_on_conn >= self.conn_lifetime:
            # connection churn: drain replies, close, reconnect lazily
            self.conn.drain(self._close)
        else:
            self._next(None)

    def _close(self, _) -> None:
        self.conn.close(self._next)

    def _close_last(self, _) -> None:
        self.conn.close(_done)


def _done(_) -> None:
    pass


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
        _Session(fe, stream, times, range(k, len(times), clients),
                 conn_lifetime)
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
