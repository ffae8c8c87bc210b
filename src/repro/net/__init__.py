"""repro.net — the simulated connection front end.

Open-loop arrival processes, per-connection RESP2 framing and state
machines, bounded queues with configurable backpressure, a server-wide
admission controller, and the offered-load sweep driver.  Everything
runs on the simulated clock (slimlint SLIM009 forbids wall clocks and
real sockets in this package); latency is always measured from the
request's *intended* start, so there is no coordinated omission.
"""

from repro.net.arrivals import (
    ArrivalProcess,
    MmppArrivals,
    PoissonArrivals,
)
from repro.net.conn import BackpressurePolicy, Connection, NetConfig
from repro.net.frontend import AdmissionController, Listener, NetFrontend
from repro.net.openloop import (
    OpenLoopPoint,
    curve_csv,
    detect_knee,
    run_open_loop,
    summarize_point,
)
from repro.net.ops import MIXES, MixSpec, OpStream

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MmppArrivals",
    "BackpressurePolicy",
    "NetConfig",
    "Connection",
    "AdmissionController",
    "Listener",
    "NetFrontend",
    "MixSpec",
    "MIXES",
    "OpStream",
    "OpenLoopPoint",
    "run_open_loop",
    "summarize_point",
    "detect_knee",
    "curve_csv",
]
