"""The label-aware metrics registry.

One :class:`MetricsRegistry` holds every instrument of one system
(or one run): monotonic :class:`ObsCounter`\\ s, :class:`ObsGauge`\\ s
with low/high watermarks, :class:`ObsHistogram`\\ s with bounded
reservoirs, and exact timestamped :class:`ObsSamples` (what the
paper's tables are read from), each keyed by ``(name, labels)``. It
also owns the span log (see :mod:`repro.obs.spans`) and a timestamped
event log, so one object captures everything an exporter needs. A
request tracer attached to it (``tracer``) lets spans opened inside a
traced process join that process's trace.

Instruments are get-or-create: ``registry.counter("wal_flushes_total",
path="wal")`` returns the same object every time, so components fetch
their handles once in ``__init__`` and hot paths touch only plain
attribute math. Every component always has a registry (its own when
none is passed), so the contract is *always booked, never schedules an
event*: telemetry reads the simulation clock and never advances it.
"""

from __future__ import annotations

import zlib
from array import array
from collections import deque

import numpy as np

from repro.obs.spans import SpanRecord
from repro.sim.engine import Environment

__all__ = ["ObsCounter", "ObsGauge", "ObsHistogram", "ObsSamples",
           "MetricsRegistry", "LabeledRegistry", "percentile",
           "render_metric_name"]

#: slots in an :class:`ObsHistogram` reservoir
RESERVOIR = 512


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``samples``.

    Always one of the samples (``method="higher"``), never an
    interpolation between two. ``nan`` for an empty set rather than
    raising, so reports can render partial runs.
    """
    if len(samples) == 0:
        return float("nan")
    return float(
        np.percentile(np.asarray(samples, dtype=np.float64), q, method="higher")
    )


class ObsCounter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def summary(self) -> dict:
        return {"value": self.value}


class ObsGauge:
    """An instantaneous value with low/high watermarks.

    A gauge can instead be bound to a callback (``fn``) for values that
    live elsewhere — e.g. the live WAF, which is a ratio the FTL
    already maintains; callback gauges are sampled at read time, so
    they are exactly as fresh as the underlying statistic.
    """

    __slots__ = ("name", "labels", "_value", "_fn", "low_water", "high_water")
    kind = "gauge"

    def __init__(self, name: str, labels: dict, fn=None):
        self.name = name
        self.labels = labels
        self._fn = fn
        self._value = 0.0
        self.low_water = float("inf")
        self.high_water = float("-inf")

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-bound")
        self._value = value
        if value < self.low_water:
            self.low_water = value
        if value > self.high_water:
            self.high_water = value

    def summary(self) -> dict:
        out = {"value": self.value}
        if self.low_water != float("inf"):
            out["low_water"] = self.low_water
            out["high_water"] = self.high_water
        return out


class ObsHistogram:
    """Sample distribution with a bounded reservoir.

    Count / sum / min / max are exact whatever the volume; percentiles
    come from a fixed-size reservoir (Vitter's algorithm R with a
    deterministic per-instrument RNG, so runs stay reproducible).
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_res_mv", "_res_np", "_rsize", "_rng",
                 "_randbuf", "_randpos")
    kind = "histogram"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # preallocated reservoir: memoryview scalar stores on the
        # observe() hot path, a zero-copy numpy view for percentiles
        buf = array("d", [0.0]) * RESERVOIR
        self._res_mv = memoryview(buf)
        self._res_np = np.frombuffer(buf, dtype=np.float64)
        self._rsize = 0
        # crc32, not hash(): builtin string hashing is salted by
        # PYTHONHASHSEED, so a hash-derived seed differs from process
        # to process and reservoir percentiles stop reproducing. The
        # seed is the series identity, which no run seed reaches.
        seed = zlib.crc32(repr((name,) + _label_key(labels)).encode())
        self._rng = np.random.default_rng(seed)  # slimlint: ignore[SLIM011] crc32 of name + labels
        # raw 63-bit draws are buffered in bulk: one generator call per
        # observation dwarfs the rest of this method on the hot path
        self._randbuf = ()
        self._randpos = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        n = self._rsize
        if n < RESERVOIR:
            self._res_mv[n] = value
            self._rsize = n + 1
        else:
            i = self._randpos
            if i >= len(self._randbuf):
                self._randbuf = self._rng.integers(
                    0, 1 << 63, size=1024, dtype=np.int64
                ).tolist()
                i = 0
            self._randpos = i + 1
            j = self._randbuf[i] % self.count
            if j < RESERVOIR:
                self._res_mv[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def reservoir(self) -> list[float]:
        """The sampled values (a copy; at most ``RESERVOIR`` entries)."""
        return self._res_np[: self._rsize].tolist()

    def percentile(self, q: float) -> float:
        if not self._rsize:
            return float("nan")
        return float(np.percentile(self._res_np[: self._rsize], q))

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class ObsSamples:
    """Every observation kept, with the instant it was made.

    The exact instrument: what a report states (p999, RPS per phase,
    the timeline) is computed from these two columns, and the
    ``p50``/``p99`` an exporter prints are the same nearest-rank
    :func:`percentile` over the same samples. Exported as a histogram.
    Costs 16 bytes per observation, so it is for per-request series;
    per-device-command series stay :class:`ObsHistogram` reservoirs.
    """

    __slots__ = ("name", "labels", "t", "v", "total")
    kind = "histogram"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.t = array("d")
        self.v = array("d")
        self.total = 0.0

    def observe(self, t: float, value: float) -> None:
        self.t.append(t)
        self.v.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self.v)

    def times(self, start: int = 0) -> np.ndarray:
        """Observation instants from index ``start`` on (a copy: a
        live view would make the next ``observe`` raise)."""
        return np.array(memoryview(self.t)[start:])

    def values(self, start: int = 0) -> np.ndarray:
        """Observed values from index ``start`` on (a copy)."""
        return np.array(memoryview(self.v)[start:])

    def percentile(self, q: float) -> float:
        return percentile(self.values(), q)

    def summary(self) -> dict:
        if not self.v:
            return {"count": 0, "sum": 0.0}
        v = self.values()
        return {
            "count": len(v),
            "sum": self.total,
            "min": float(v.min()),
            "max": float(v.max()),
            "mean": self.total / len(v),
            "p50": percentile(v, 50),
            "p99": percentile(v, 99),
        }


class MetricsRegistry:
    """All telemetry of one system: instruments + spans + events."""

    def __init__(self, env: Environment, name: str = "run",
                 span_capacity: int = 1 << 20):
        self.env = env
        self.name = name
        self._instruments: dict[tuple, object] = {}
        #: completed spans, ring-buffered (oldest evicted)
        self._spans: deque[SpanRecord] = deque(maxlen=span_capacity)
        self.spans_dropped = 0
        self._events: list[dict] = []
        #: request tracer whose trace scopes registry spans join
        self.tracer = None

    # ------------------------------------------------------------ instruments
    def _get(self, cls, name: str, labels: dict, **kw):
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, labels, **kw)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"{name}{labels} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> ObsCounter:
        return self._get(ObsCounter, name, labels)

    def gauge(self, name: str, fn=None, **labels) -> ObsGauge:
        return self._get(ObsGauge, name, labels, fn=fn)

    def histogram(self, name: str, **labels) -> ObsHistogram:
        return self._get(ObsHistogram, name, labels)

    def samples(self, name: str, **labels) -> ObsSamples:
        return self._get(ObsSamples, name, labels)

    def instruments(self):
        """All instruments in registration order."""
        return list(self._instruments.values())

    def total(self, name: str, **labels) -> float:
        """Sum of the counters called ``name`` whose labels include
        ``labels`` (all rings, both block-command classes, ...).

        The read side for reports and tests: unlike ``counter()`` it
        never creates an instrument, so a misspelt name raises
        ``KeyError`` instead of reading a silent zero.
        """
        want = set(_label_key(labels))
        found = [
            inst for (n, key), inst in self._instruments.items()
            if n == name and want <= set(key)
        ]
        if not found:
            raise KeyError(f"no instrument {name}{labels or ''}")
        if any(inst.kind != "counter" for inst in found):
            raise TypeError(f"{name} is not a counter")
        return sum(inst.value for inst in found)

    def labeled(self, **labels) -> LabeledRegistry:
        """A view of this registry that stamps ``labels`` on everything.

        Multi-tenant deployments attach one view per tenant (e.g.
        ``registry.labeled(shard="shard2")``) so a single registry — and
        a single export — tells tenants apart by label.
        """
        return LabeledRegistry(self, labels)

    # ------------------------------------------------------------ spans/events
    def span(self, name: str, layer: str = "main", links=(),
             **labels) -> SpanRecord:
        """An open span to bracket a region with (``with ...:``)."""
        return SpanRecord(name, layer, self.env.now, labels=labels,
                          links=links, registry=self)

    def _record_span(self, record: SpanRecord) -> None:
        if len(self._spans) == self._spans.maxlen:
            self.spans_dropped += 1  # the append below evicts the oldest
        self._spans.append(record)

    @property
    def spans(self) -> list[SpanRecord]:
        """Retained spans in completion order (a copy)."""
        return list(self._spans)

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [s for s in self._spans if s.name == name]

    def event(self, name: str, **fields) -> None:
        """Append one timestamped entry to the run event log."""
        self._events.append({"t": self.env.now, "name": name, **fields})

    @property
    def events(self) -> list[dict]:
        return self._events

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict[str, dict]:
        """Final values of every instrument, keyed by rendered name.

        The rendered key is the Prometheus form:
        ``name{label="value",...}``.
        """
        out: dict[str, dict] = {}
        for inst in self._instruments.values():
            out[render_metric_name(inst.name, inst.labels)] = {
                "kind": inst.kind, **inst.summary()
            }
        return out


class LabeledRegistry:
    """A label-injecting view over a :class:`MetricsRegistry`.

    Exposes the full registry surface; every instrument, span, and
    event created through the view carries the view's fixed labels
    (call-site labels win on key collision). Views are cheap and
    stateless — all storage lives in the base registry, so exporters
    keep working on the base object unchanged.
    """

    def __init__(self, base: MetricsRegistry, labels: dict):
        # collapse view-of-view so instruments always live in the root
        if isinstance(base, LabeledRegistry):
            labels = {**base.base_labels, **labels}
            base = base.base
        self.base = base
        self.base_labels = dict(labels)

    def __getattr__(self, attr: str):
        # all state lives in the base: env, name, tracer, spans, events,
        # instruments(), snapshot(), ... read straight through
        if attr == "base":   # unpickling, before __init__ has run
            raise AttributeError(attr)
        return getattr(self.base, attr)

    # label-injecting surface --------------------------------------------
    def _merge(self, labels: dict) -> dict:
        return {**self.base_labels, **labels}

    def counter(self, name: str, **labels) -> ObsCounter:
        return self.base.counter(name, **self._merge(labels))

    def gauge(self, name: str, fn=None, **labels) -> ObsGauge:
        return self.base.gauge(name, fn=fn, **self._merge(labels))

    def histogram(self, name: str, **labels) -> ObsHistogram:
        return self.base.histogram(name, **self._merge(labels))

    def samples(self, name: str, **labels) -> ObsSamples:
        return self.base.samples(name, **self._merge(labels))

    def total(self, name: str, **labels) -> float:
        return self.base.total(name, **self._merge(labels))

    def span(self, name: str, layer: str = "main", links=(),
             **labels) -> SpanRecord:
        return self.base.span(name, layer, links, **self._merge(labels))

    def event(self, name: str, **fields) -> None:
        self.base.event(name, **self._merge(fields))

    def labeled(self, **labels) -> LabeledRegistry:
        return LabeledRegistry(self, labels)


def render_metric_name(name: str, labels: dict) -> str:
    if not labels:
        return name
    body = ",".join(
        f'{k}="{v}"' for k, v in sorted(
            (str(k), str(v)) for k, v in labels.items()
        )
    )
    return f"{name}{{{body}}}"
