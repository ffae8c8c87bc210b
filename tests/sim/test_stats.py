"""Tests for measurement primitives."""

import math

import numpy as np
import pytest

from repro.sim import IntervalRate, LatencyRecorder, TimeWeighted, percentile


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 99))


def test_percentile_single_value():
    assert percentile([7.0], 99.9) == 7.0


def test_percentile_median():
    assert percentile([1, 2, 3, 4, 5], 50) == 3


def test_latency_recorder_summary():
    rec = LatencyRecorder("set")
    rec.extend([1.0, 2.0, 3.0, 4.0])
    s = rec.summary()
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(2.5)
    assert s["max"] == 4.0
    assert len(rec) == 4


def test_latency_recorder_empty():
    rec = LatencyRecorder()
    assert math.isnan(rec.mean())
    assert math.isnan(rec.p(99.9))
    assert math.isnan(rec.max())


def test_latency_p999_tail_sensitivity():
    rec = LatencyRecorder()
    rec.extend([1.0] * 999 + [100.0])
    assert rec.p(50) == 1.0
    assert rec.p(99.9) > 50.0


def test_timeweighted_mean_and_peak():
    tw = TimeWeighted(t0=0.0, value=10.0)
    tw.update(5.0, 20.0)  # 10 for 5s
    tw.update(10.0, 0.0)  # 20 for 5s
    assert tw.peak == 20.0
    assert tw.mean(10.0) == pytest.approx(15.0)


def test_timeweighted_add_delta():
    tw = TimeWeighted()
    tw.add(1.0, 4.0)
    tw.add(2.0, -1.0)
    assert tw.value == 3.0
    assert tw.peak == 4.0


def test_timeweighted_time_backwards_raises():
    tw = TimeWeighted()
    tw.update(5, 1)
    with pytest.raises(ValueError):
        tw.update(4, 2)


def test_interval_rate_binning():
    r = IntervalRate()
    # 10 events in [0,1), 20 in [1,2)
    for i in range(10):
        r.record(i * 0.1)
    for i in range(20):
        r.record(1.0 + i * 0.05)
    centers, rates = r.rate(bin_width=1.0, t0=0.0, t1=2.0)
    assert len(centers) == 2
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(20.0)


def test_interval_rate_mean():
    r = IntervalRate()
    for i in range(100):
        r.record(i * 0.01)  # 100 events in ~1s
    assert r.mean_rate(0.0, 1.0) == pytest.approx(100.0)
    assert r.count == 100


def test_interval_rate_empty():
    r = IntervalRate()
    centers, rates = r.rate(1.0)
    assert len(centers) == 0
    assert r.mean_rate() == 0.0


def test_interval_rate_weighted():
    r = IntervalRate()
    r.record(0.5, weight=5)
    r.record(0.6, weight=5)
    _, rates = r.rate(bin_width=1.0, t0=0.0, t1=1.0)
    assert rates[0] == pytest.approx(10.0)


def test_interval_rate_invalid_bin():
    r = IntervalRate()
    r.record(0.0)
    with pytest.raises(ValueError):
        r.rate(0)


def test_interval_rate_event_at_hi_counted():
    """Regression: an event exactly at t1 must land in the last bin.

    With bin_width=0.3 the float edge grid accumulates to
    0.8999999999999999 < 0.9, which used to drop the event at hi even
    though mean_rate's ``t <= hi`` mask counts it.
    """
    r = IntervalRate()
    for t in (0.0, 0.3, 0.6, 0.9):
        r.record(t)
    centers, rates = r.rate(0.3, t0=0.0, t1=0.9)
    total = float(np.sum(rates) * 0.3)
    assert total == pytest.approx(4.0)
    assert total == pytest.approx(r.mean_rate(0.0, 0.9) * 0.9)


def test_interval_rate_window_matches_mean_rate():
    """rate() and mean_rate() must agree on the same [t0, t1] window.

    Events beyond t1 used to leak into the trailing bin whenever the
    edge grid overshot hi (e.g. bin_width=0.4 over [0, 1]).
    """
    r = IntervalRate()
    for t in (0.0, 0.5, 1.0, 1.15):
        r.record(t)
    centers, rates = r.rate(0.4, t0=0.0, t1=1.0)
    total = float(np.sum(rates) * 0.4)
    assert total == pytest.approx(3.0)  # the 1.15 event is outside
    assert total == pytest.approx(r.mean_rate(0.0, 1.0) * 1.0)
    assert centers[-1] <= 1.0 + 0.4  # no bins beyond the window


def test_interval_rate_events_before_t0_excluded():
    r = IntervalRate()
    for t in (0.0, 1.0, 2.0):
        r.record(t)
    _, rates = r.rate(0.5, t0=0.5, t1=2.0)
    assert float(np.sum(rates) * 0.5) == pytest.approx(2.0)
    assert r.mean_rate(0.5, 2.0) * 1.5 == pytest.approx(2.0)


def test_timeweighted_mean_at_zero_span_returns_current_value():
    tw = TimeWeighted(t0=5.0, value=3.0)
    # no time has passed: the mean of a zero-length window is the
    # current value, not a division by zero
    assert tw.mean(t_end=5.0) == 3.0
    assert tw.mean() == 3.0
    tw.update(5.0, 7.0)  # same-instant update, still zero span
    assert tw.mean(t_end=5.0) == 7.0
