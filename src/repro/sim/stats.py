"""Measurement primitives: exact latency samples and rate timelines.

All heavy aggregation (percentiles, binned rates) is vectorized with
numpy per the HPC guides — samples are appended to plain lists during
the run and converted to arrays once at analysis time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "percentile",
    "LatencyRecorder",
    "TimeWeighted",
    "IntervalRate",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile ``q`` in [0, 100] of ``samples`` (nearest-rank style).

    Returns ``nan`` for an empty sample set rather than raising, so
    reports can render partial runs.
    """
    if len(samples) == 0:
        return float("nan")
    return float(
        np.percentile(np.asarray(samples, dtype=np.float64), q, method="higher")
    )


class LatencyRecorder:
    """Collects individual latency samples; summarizes with numpy.

    Used for per-request SET/GET latency (p50/p99/p999 in the paper's
    Tables 3-4).
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: list[float] = []

    def record(self, latency: float) -> None:
        self._samples.append(latency)

    def extend(self, latencies: Sequence[float]) -> None:
        self._samples.extend(latencies)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> np.ndarray:
        return np.asarray(self._samples, dtype=np.float64)

    def mean(self) -> float:
        return float(self.samples.mean()) if self._samples else float("nan")

    def max(self) -> float:
        return float(self.samples.max()) if self._samples else float("nan")

    def p(self, q: float) -> float:
        return percentile(self._samples, q)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "p50": self.p(50),
            "p99": self.p(99),
            "p999": self.p(99.9),
            "max": self.max(),
        }


class TimeWeighted:
    """Time-weighted statistic of a piecewise-constant signal.

    Tracks mean and peak of a value that changes at discrete instants —
    e.g. resident memory during a run (paper Tables 1, 3, 4 report peak
    and steady memory usage).
    """

    def __init__(self, t0: float = 0.0, value: float = 0.0):
        self._last_t = t0
        self._value = value
        self._area = 0.0
        self._t0 = t0
        self.peak = value

    @property
    def value(self) -> float:
        return self._value

    def update(self, t: float, value: float) -> None:
        if t < self._last_t:
            raise ValueError("time went backwards")
        self._area += self._value * (t - self._last_t)
        self._last_t = t
        self._value = value
        if value > self.peak:
            self.peak = value

    def add(self, t: float, delta: float) -> None:
        self.update(t, self._value + delta)

    def mean(self, t_end: float | None = None) -> float:
        t = self._last_t if t_end is None else t_end
        if t < self._last_t:
            raise ValueError("t_end before last update")
        area = self._area + self._value * (t - self._last_t)
        span = t - self._t0
        return area / span if span > 0 else self._value


class IntervalRate:
    """Event timestamps → binned rate timeline (RPS curves, Figs 4-5).

    ``record`` appends an event time (optionally a weight); ``rate``
    bins them into fixed-width intervals and returns
    (bin_centers, events_per_time_unit).
    """

    def __init__(self, name: str = "rate"):
        self.name = name
        self._t: list[float] = []
        self._w: list[float] = []

    def record(self, t: float, weight: float = 1.0) -> None:
        self._t.append(t)
        self._w.append(weight)

    def __len__(self) -> int:
        return len(self._t)

    @property
    def timestamps(self) -> np.ndarray:
        return np.asarray(self._t, dtype=np.float64)

    @property
    def count(self) -> float:
        return float(np.sum(self._w)) if self._w else 0.0

    def rate(
        self, bin_width: float, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if not self._t:
            return np.array([]), np.array([])
        t = np.asarray(self._t, dtype=np.float64)
        w = np.asarray(self._w, dtype=np.float64)
        lo = t[0] if t0 is None else t0
        hi = t[-1] if t1 is None else t1
        if hi <= lo:
            hi = lo + bin_width
        # Window semantics must match mean_rate's mask (lo <= t <= hi):
        # events outside [lo, hi] are excluded up front, and the last
        # bin edge is pinned at >= hi so an event exactly at hi cannot
        # fall off the histogram to float rounding in the edge grid.
        mask = (t >= lo) & (t <= hi)
        t, w = t[mask], w[mask]
        n_bins = max(1, int(np.ceil((hi - lo) / bin_width - 1e-9)))
        edges = lo + np.arange(n_bins + 1, dtype=np.float64) * bin_width
        edges[-1] = max(edges[-1], hi)
        counts, edges = np.histogram(t, bins=edges, weights=w)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, counts / bin_width

    def mean_rate(self, t0: float | None = None, t1: float | None = None) -> float:
        """Average events per time unit over [t0, t1]."""
        if not self._t:
            return 0.0
        t = np.asarray(self._t, dtype=np.float64)
        w = np.asarray(self._w, dtype=np.float64)
        lo = t[0] if t0 is None else t0
        hi = t[-1] if t1 is None else t1
        mask = (t >= lo) & (t <= hi)
        span = hi - lo
        return float(w[mask].sum() / span) if span > 0 else 0.0
