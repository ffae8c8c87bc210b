"""Arrival-process tests: determinism, mean rates, burst structure."""

import numpy as np
import pytest

from repro.net import MmppArrivals, PoissonArrivals

PROCS = [
    PoissonArrivals(5_000, seed=3),
    MmppArrivals(5_000, burst=4.0, dwell_calm=0.02, dwell_burst=0.005,
                 seed=3),
]


@pytest.mark.parametrize("proc", PROCS, ids=lambda p: type(p).__name__)
def test_schedule_is_deterministic(proc):
    a = proc.times(0.5)
    b = proc.times(0.5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("proc", PROCS, ids=lambda p: type(p).__name__)
def test_times_sorted_and_in_window(proc):
    t = proc.times(0.5, t0=2.0)
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 2.0
    assert t[-1] < 2.5


@pytest.mark.parametrize("proc", PROCS, ids=lambda p: type(p).__name__)
def test_mean_rate_close_to_nominal(proc):
    # 0.5s at 5k/s = 2500 expected; allow generous sampling noise
    n = len(proc.times(0.5))
    assert 0.75 * 2500 < n < 1.25 * 2500


def test_mmpp_is_burstier_than_poisson():
    """Same mean rate, but the MMPP packs arrivals into burst dwells:
    its per-bin count variance must exceed the Poisson's."""
    def bin_var(times, width=0.005, duration=1.0):
        counts, _ = np.histogram(times, bins=int(duration / width),
                                 range=(0.0, duration))
        return counts.var()

    po = PoissonArrivals(5_000, seed=9).times(1.0)
    mm = MmppArrivals(5_000, burst=6.0, dwell_calm=0.05,
                      dwell_burst=0.01, seed=9).times(1.0)
    assert bin_var(mm) > 2.0 * bin_var(po)


def test_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        MmppArrivals(100, burst=0.5)
    with pytest.raises(ValueError):
        MmppArrivals(100, dwell_calm=0.0)


def test_mmpp_mean_rate_compensates_for_bursts():
    """rate_calm is solved so the stationary mean matches `rate`."""
    m = MmppArrivals(10_000, burst=8.0, dwell_calm=0.01,
                     dwell_burst=0.01, seed=5)
    assert m.rate_calm < 10_000 < m.rate_burst
    n = len(m.times(2.0))
    assert 0.8 * 20_000 < n < 1.2 * 20_000
