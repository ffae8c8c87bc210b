"""Key expiration (Redis TTL semantics).

Expiration matters to persistence exactly the way Redis documents it:

* a lazily- or actively-expired key is propagated as an explicit **DEL**
  to the WAL (replicas/AOF must not re-expire independently);
* snapshots simply omit expired keys (the child works on the fork-point
  dict, which the parent has already pruned of anything it noticed).

Semantics implemented:

* **lazy expiration** — a GET/SET/DEL on an expired key first removes
  it (and logs the DEL);
* **active cycle** — a background task samples the TTL table every
  ``cycle_interval`` and evicts what it finds expired, in bounded
  batches (Redis's activeExpireCycle).

The table maps keys to absolute simulated deadlines. It is owned by
the server (which knows the clock and the WAL); the store stays a dumb
byte container.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Generator

from repro.obs.registry import MetricsRegistry
from repro.sim import Environment

__all__ = ["ExpiryTable", "ExpiryConfig"]


@dataclass(frozen=True)
class ExpiryConfig:
    """Active-cycle policy."""

    cycle_interval: float = 0.1
    max_evictions_per_cycle: int = 20

    def __post_init__(self) -> None:
        if self.cycle_interval <= 0:
            raise ValueError("cycle_interval must be positive")
        if self.max_evictions_per_cycle < 1:
            raise ValueError("max_evictions_per_cycle must be >= 1")


class ExpiryTable:
    """TTL deadlines with a heap for the active cycle."""

    def __init__(self, env: Environment, config: ExpiryConfig | None = None,
                 obs=None):
        self.env = env
        self.config = config or ExpiryConfig()
        self._deadline: dict[bytes, float] = {}
        self._heap: list[tuple[float, bytes]] = []
        self.obs = obs or MetricsRegistry(env)
        self._obs_active = self.obs.counter("expiry_active_evictions_total")
        self._obs_lazy = self.obs.counter("expiry_lazy_evictions_total")
        self._obs_cycles = self.obs.counter("expiry_cycles_total")

    def __len__(self) -> int:
        return len(self._deadline)

    def set_ttl(self, key: bytes, ttl: float) -> None:
        """(Re)arm expiration ``ttl`` seconds from now."""
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        deadline = self.env.now + ttl
        self._deadline[key] = deadline
        heapq.heappush(self._heap, (deadline, key))

    def persist(self, key: bytes) -> bool:
        """Remove the TTL (Redis PERSIST); True if one existed."""
        return self._deadline.pop(key, None) is not None

    def ttl(self, key: bytes) -> float | None:
        """Remaining lifetime, None if no TTL set, 0 if already due."""
        deadline = self._deadline.get(key)
        if deadline is None:
            return None
        return max(deadline - self.env.now, 0.0)

    def is_expired(self, key: bytes) -> bool:
        deadline = self._deadline.get(key)
        return deadline is not None and self.env.now >= deadline

    def note_deleted(self, key: bytes) -> None:
        """Key removed by other means; drop its TTL."""
        self._deadline.pop(key, None)

    def due_keys(self, limit: int) -> list[bytes]:
        """Pop up to ``limit`` keys whose deadline has passed.

        Heap entries may be stale (TTL re-armed or key deleted); they
        are skipped against the authoritative dict.
        """
        out: list[bytes] = []
        now = self.env.now
        while self._heap and len(out) < limit:
            deadline, key = self._heap[0]
            if deadline > now:
                break
            heapq.heappop(self._heap)
            current = self._deadline.get(key)
            if current is None or current > now:
                continue  # stale entry
            del self._deadline[key]
            out.append(key)
            self._obs_active.inc()
        return out

    def lazy_check(self, key: bytes) -> bool:
        """True if the key just expired (caller must delete + log DEL)."""
        if self.is_expired(key):
            del self._deadline[key]
            self._obs_lazy.inc()
            return True
        return False

    def active_cycle(self, evict) -> Generator:
        """Background process: periodically evict due keys.

        ``evict(key)`` is a generator the server provides — it removes
        the key from the store and logs the DEL through the WAL.
        Terminates when :meth:`stop` is called.
        """
        self._running = True
        while self._running:
            kick = self.env.timeout(self.config.cycle_interval)
            yield kick
            for key in self.due_keys(self.config.max_evictions_per_cycle):
                yield from evict(key)
            self._obs_cycles.inc()

    def stop(self) -> None:
        self._running = False
