"""Open-loop arrival processes on the simulated clock.

A closed-loop client issues the next request when the previous one
returns, so a slow server quietly throttles its own load generator and
the latency distribution never sees the requests that *would* have
arrived (coordinated omission).  An open-loop process fixes the arrival
schedule up front: requests arrive when the process says they arrive,
whether or not the server has caught up, and queueing delay becomes
part of every reported latency.

All processes are seeded and pre-draw their whole schedule with numpy,
so a run is deterministic and the draw order never depends on how
connections interleave.

* :class:`PoissonArrivals` — memoryless arrivals at a constant mean
  rate (the M/G/1 textbook shape; what ``wrk2``-style generators emit).
* :class:`MmppArrivals` — a two-state Markov-modulated Poisson process:
  calm/burst states with exponentially distributed dwell times.  The
  mean rate matches ``rate``; the burst state runs ``burst``× hotter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MmppArrivals",
]


class ArrivalProcess:
    """Base: a deterministic schedule generator with a mean rate."""

    #: headline mean arrivals per simulated second
    rate: float
    seed: int

    def times(self, duration: float, t0: float = 0.0) -> np.ndarray:
        """Absolute arrival instants in ``[t0, t0 + duration)``."""
        raise NotImplementedError

    def _check(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")


class PoissonArrivals(ArrivalProcess):
    """Constant-rate memoryless arrivals."""

    def __init__(self, rate: float, seed: int = 1):
        self.rate = float(rate)
        self.seed = seed
        self._check()

    def times(self, duration: float, t0: float = 0.0) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        # draw in batches until the cumulative sum clears the horizon
        n = max(16, int(duration * self.rate * 1.2) + 16)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        t = np.cumsum(gaps)
        while t[-1] < duration:
            more = rng.exponential(1.0 / self.rate, size=n)
            t = np.concatenate([t, t[-1] + np.cumsum(more)])
        return t0 + t[t < duration]


class MmppArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm ⇄ burst).

    ``rate`` is the stationary mean; the burst state runs ``burst``
    times hotter than the calm state.  Dwell times in each state are
    exponential with means ``dwell_calm`` / ``dwell_burst`` seconds.
    """

    def __init__(self, rate: float, burst: float = 4.0,
                 dwell_calm: float = 0.2, dwell_burst: float = 0.05,
                 seed: int = 1):
        if burst < 1.0:
            raise ValueError("burst factor must be >= 1")
        if dwell_calm <= 0 or dwell_burst <= 0:
            raise ValueError("dwell times must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.dwell_calm = float(dwell_calm)
        self.dwell_burst = float(dwell_burst)
        self.seed = seed
        self._check()
        # stationary fractions, then solve the calm rate so the
        # long-run mean matches `rate`
        f_calm = dwell_calm / (dwell_calm + dwell_burst)
        f_burst = 1.0 - f_calm
        self.rate_calm = self.rate / (f_calm + self.burst * f_burst)
        self.rate_burst = self.burst * self.rate_calm

    def times(self, duration: float, t0: float = 0.0) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        chunks: list[np.ndarray] = []
        t = 0.0
        calm = True
        while t < duration:
            dwell = rng.exponential(
                self.dwell_calm if calm else self.dwell_burst)
            dwell = min(dwell, duration - t)
            lam = self.rate_calm if calm else self.rate_burst
            n = int(rng.poisson(lam * dwell))
            if n > 0:
                chunks.append(t + np.sort(rng.random(n)) * dwell)
            t += dwell
            calm = not calm
        if not chunks:
            return np.empty(0)
        return t0 + np.concatenate(chunks)
