"""Spans: the one record of a timed region on the simulation clock.

A :class:`SpanRecord` is what the registry logs and what a request
trace holds. A region bracketed through the registry is booked once::

    with self.obs.span("wal_flush", "wal", policy="periodical"):
        yield from self._drain_locked(fsync=False)

and, when the running process carries a trace scope of an attached
tracer, the same record gets ids and joins that trace (see
:mod:`repro.obs.trace`). A span reads the clock twice and appends one
record; it never schedules an event, so it cannot move the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry

__all__ = ["SpanRecord"]

#: the record's fields, in ``__init__`` order
_FIELDS = ("name", "layer", "t0", "t1", "labels", "ok", "trace_id",
           "span_id", "parent_id", "links")


class SpanRecord:
    """One timed region: ``t1 is None`` while it is open.

    ``trace_id``/``span_id``/``parent_id`` are set only when the span
    belongs to a request or background trace; ``links`` name the
    request traces a group-commit flush made durable. A record from
    :meth:`MetricsRegistry.span` is also the context manager that
    brackets its region, and entering yields the record itself, so a
    region can add labels before it closes
    (``gc_span.labels["copied"] = n``).
    """

    __slots__ = (*_FIELDS, "registry")

    def __init__(self, name, layer, t0, t1=None, labels=None, ok=True,
                 trace_id=None, span_id=None, parent_id=None, links=(),
                 registry: MetricsRegistry | None = None):
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t1
        self.labels = labels if labels is not None else {}
        self.ok = ok
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.links = tuple(links)
        #: the registry that books this region at exit (None: a record
        #: the tracer created or a dump loaded)
        self.registry = registry

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def to_dict(self) -> dict:
        """The one JSONL span schema (both dumps write it)."""
        d = {"name": self.name, "layer": self.layer,
             "t0": self.t0, "t1": self.t1}
        if self.trace_id is not None:
            d.update(trace_id=self.trace_id, span_id=self.span_id,
                     parent_id=self.parent_id)
        if self.labels:
            d["labels"] = self.labels
        if self.links:
            d["links"] = list(self.links)
        if not self.ok:
            d["ok"] = False
        return d

    @classmethod
    def from_dict(cls, d: dict) -> SpanRecord:
        return cls(**{k: d[k] for k in _FIELDS if k in d})

    def __enter__(self) -> SpanRecord:
        self.t0 = self.registry.env.now
        tracer = self.registry.tracer
        if tracer is not None:
            tracer.join(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = self.registry.env.now
        self.ok = exc_type is None
        if self.span_id is not None:   # joined a trace: leave its scope
            self.registry.tracer.close_span(self, ok=self.ok)
        self.registry._record_span(self)
        return False  # never swallow exceptions
