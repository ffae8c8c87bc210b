"""Per-process, per-component CPU attribution.

The paper's Table 2 reports "CPU usage of the file-system write path in
the snapshot process" and Figure 2a splits snapshot time into
in-memory / kernel-I/O / SSD components. To regenerate those, every
simulated CPU cost is charged to a :class:`CpuAccount` under a
component label ("syscall", "copy", "fs", "pagecache", "block",
"uring"), and device wait time under "ssd_wait".
"""

from __future__ import annotations

from repro.sim import Environment

__all__ = ["CpuAccount"]


class CpuAccount:
    """CPU/wait-time ledger for one simulated OS process."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        #: seconds per component — model state the reports read
        #: (Table 2, Figure 2a), not telemetry
        self._components: dict[str, float] = {}
        self._started_at = env.now

    def charge(self, component: str, dt: float):
        """Spend ``dt`` CPU seconds attributed to ``component``.

        Returns the timeout event to ``yield`` on, or ``None`` when the
        charge is free — or when the environment's quiescence
        fast-forward absorbed the delay in closed form (the clock has
        already advanced; there is nothing left to wait for).
        Returning the event directly instead of delegating through a
        one-yield generator keeps the hot path (one charge per op per
        layer) free of a trampoline per call; callers MUST use the
        guarded pattern ``ev = acct.charge(...); if ev is not None:
        yield ev`` — a bare ``yield acct.charge(...)`` would yield
        ``None`` whenever the delay is absorbed.
        """
        if not dt >= 0:  # NaN-safe
            raise ValueError("negative charge")
        self._components[component] = self._components.get(component, 0.0) + dt
        if dt > 0:
            env = self.env
            if env.ff_advance(dt):
                return None
            return env.timeout(dt)
        return None

    def note(self, component: str, dt: float) -> None:
        """Attribute ``dt`` without consuming simulated time.

        Used for wait-time categories where the caller already paid the
        wall-clock (e.g. time blocked on the device).
        """
        if not dt >= 0:  # NaN-safe
            raise ValueError("negative note")
        self._components[component] = self._components.get(component, 0.0) + dt

    def time_in(self, component: str) -> float:
        return self._components.get(component, 0.0)

    def total_charged(self) -> float:
        return sum(self._components.values())

    def breakdown(self) -> dict[str, float]:
        return dict(self._components)

    def share_of(self, component: str, wall_time: float) -> float:
        """Fraction of ``wall_time`` spent in ``component`` (Table 2)."""
        if wall_time <= 0:
            return 0.0
        return self.time_in(component) / wall_time
