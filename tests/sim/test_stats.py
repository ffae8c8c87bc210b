"""Tests for the measurement primitives reports are computed with.

``repro.sim.stats`` is gone: the nearest-rank ``percentile`` and the
exact latency recorder (``ObsSamples``) live in ``repro.obs.registry``,
the RPS binning beside its only caller in ``repro.workloads.runner``,
and the mean rate / measurement window in ``imdb.ServerMetrics``. The
tests whose behaviour survived the move keep their names here.
"""

import math

import numpy as np
import pytest

from repro.imdb import ServerMetrics
from repro.obs import MetricsRegistry, percentile
from repro.sim import Environment
from repro.workloads.runner import _rate_timeline


def recorder():
    return MetricsRegistry(Environment()).samples("lat_seconds", op="SET")


def window_over(times, open_after=0):
    """A ``ServerMetrics`` window over one series observed at ``times``,
    opened once the first ``open_after`` observations are in."""
    rec = recorder()
    for t in times[:open_after]:
        rec.observe(t, 1e-6)
    window = ServerMetrics({"SET": rec})
    for t in times[open_after:]:
        rec.observe(t, 1e-6)
    return window


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 99))


def test_percentile_single_value():
    assert percentile([7.0], 99.9) == 7.0


def test_percentile_median():
    assert percentile([1, 2, 3, 4, 5], 50) == 3


def test_latency_recorder_summary():
    rec = recorder()
    for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        rec.observe(0.1 * i, v)
    s = rec.summary()
    assert s["count"] == 4 and rec.count == 4
    assert s["sum"] == 10.0
    assert s["mean"] == pytest.approx(2.5)
    assert (s["min"], s["max"]) == (1.0, 4.0)
    # nearest-rank: a percentile is always one of the samples
    assert s["p50"] == 3.0 and s["p99"] == 4.0
    assert rec.values(2).tolist() == [3.0, 4.0]
    assert rec.times(2).tolist() == pytest.approx([0.2, 0.3])


def test_latency_recorder_empty():
    rec = recorder()
    assert rec.summary() == {"count": 0, "sum": 0.0}
    assert math.isnan(rec.percentile(99.9))
    assert len(rec.values()) == 0


def test_latency_recorder_reads_do_not_pin_the_buffer():
    """A numpy view left alive over the sample column would make the
    next ``observe`` raise ``BufferError``; reads must copy."""
    rec = recorder()
    rec.observe(0.0, 1.0)
    held = [rec.values(), rec.times(), rec.summary()]
    rec.observe(1.0, 2.0)
    assert held[0].tolist() == [1.0] and rec.count == 2


def test_latency_p999_tail_sensitivity():
    rec = recorder()
    for i, v in enumerate([1.0] * 999 + [100.0]):
        rec.observe(float(i), v)
    assert rec.percentile(50) == 1.0
    assert rec.percentile(99.9) > 50.0


def test_interval_rate_binning():
    # 10 events in [0,1), 20 in [1,2]
    t = np.array([i * 0.1 for i in range(10)]
                 + [1.0 + i * 0.05 for i in range(20)] + [2.0])
    centers, rates = _rate_timeline(t, bin_width=1.0)
    assert len(centers) == 2
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(21.0)


def test_interval_rate_mean():
    window = window_over([i * 0.01 for i in range(100)])  # 100 in 0.99 s
    assert len(window.op_times) == 100
    assert window.phase_rps()["average"] == pytest.approx(100 / 0.99)


def test_interval_rate_empty():
    centers, rates = _rate_timeline(np.array([]), 1.0)
    assert len(centers) == 0 and len(rates) == 0


def test_interval_rate_invalid_bin():
    with pytest.raises(ValueError):
        _rate_timeline(np.array([0.0]), 0)


def test_interval_rate_event_at_hi_counted():
    """Regression: the last event must land in the last bin.

    With bin_width=0.3 the float edge grid accumulates to
    0.8999999999999999 < 0.9, which used to drop the event at hi.
    """
    centers, rates = _rate_timeline(np.array([0.0, 0.3, 0.6, 0.9]), 0.3)
    assert float(np.sum(rates) * 0.3) == pytest.approx(4.0)


def test_interval_rate_window_matches_mean_rate():
    """The binned timeline and the mean RPS are two views of one
    window and must count the same events (bin_width=0.4 makes the
    edge grid overshoot the last event)."""
    window = window_over([0.0, 0.5, 1.0, 1.15])
    t = window.op_times
    centers, rates = _rate_timeline(t, 0.4)
    assert float(np.sum(rates) * 0.4) == pytest.approx(4.0)
    assert window.phase_rps()["average"] * (t[-1] - t[0]) \
        == pytest.approx(4.0)
    assert centers[-1] <= t[-1] + 0.4  # no bins beyond the window


def test_interval_rate_events_before_t0_excluded():
    """What was observed before the window opened is not in it."""
    window = window_over([0.0, 1.0, 2.0], open_after=1)
    assert window.op_times.tolist() == [1.0, 2.0]
    _, rates = _rate_timeline(window.op_times, 0.5)
    assert float(np.sum(rates) * 0.5) == pytest.approx(2.0)
    assert len(window.set_latency) == 2
