"""Generator wrappers over the client-side steps, for test processes.

``Connection.send``/``drain``/``close`` and ``Listener.connect`` take a
continuation; a test written as a process waits on an event the
continuation fires instead (one zero-delay dispatch per call more than
the open-loop sessions pay).  ``put`` hands a raw chunk to a reader
and yields an already-processed event, as an unbounded ``Store.put``
would.
"""

from collections.abc import Generator

from repro.sim import Event
from repro.sim.resources import Release


def connect(listener) -> Generator:
    """The accepted :class:`Connection`, or ``None`` when refused."""
    ev = Event(listener.env)
    if not listener.connect(ev.succeed):
        return None
    return (yield ev)


def send(conn, group, t_intended: float) -> Generator:
    """Send one op group; returns the number of commands put on the wire."""
    ev = Event(conn.env)
    conn.send(group, t_intended, ev.succeed)
    return (yield ev)


def drain(conn) -> Generator:
    ev = Event(conn.env)
    conn.drain(ev.succeed)
    yield ev


def close(conn) -> Generator:
    ev = Event(conn.env)
    conn.close(ev.succeed)
    yield ev


def put(conn, chunk) -> Release:
    conn.deliver(chunk)
    return Release(conn.env)
