"""Span timing: context managers over simulated time.

A :class:`Span` brackets a region of a simulation process — WAL flush,
snapshot write, GC reclaim, recovery replay — recording its start/end
on the simulation clock. Spans are context managers, so they compose
naturally with generator-based processes::

    with self.obs.span("wal_flush", track="wal", policy="periodical"):
        yield from self._drain_locked(fsync=False)

Each completed span lands in the owning registry's span log. A span
reads the clock twice and appends one record; it never schedules an
event, so bracketing a region cannot move the simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry

__all__ = ["SpanRecord", "Span"]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span on the simulation timeline."""

    name: str
    track: str
    t0: float
    t1: float
    labels: dict = field(default_factory=dict)
    ok: bool = True

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return asdict(self)


class Span:
    """A live span; created via :meth:`MetricsRegistry.span`."""

    __slots__ = ("registry", "name", "track", "labels", "t0", "t1")

    def __init__(self, registry: MetricsRegistry, name: str, track: str,
                 labels: dict):
        self.registry = registry
        self.name = name
        self.track = track
        self.labels = labels
        self.t0: float | None = None
        self.t1: float | None = None

    def __enter__(self) -> Span:
        self.t0 = self.registry.env.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = self.registry.env.now
        self.registry._record_span(
            SpanRecord(self.name, self.track, self.t0, self.t1,
                       self.labels, exc_type is None)
        )
        return False  # never swallow exceptions
