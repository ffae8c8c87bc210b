"""Shared resources for processes: locks, capacity pools, queues.

These model the contention points in the reproduction:

* :class:`Lock` — the EXT4 journal commit lock, the fork/CoW page lock.
* :class:`Resource` — bounded service slots (e.g. the block layer's
  in-flight window).
* :class:`Store` — FIFO queues (submission/completion rings, mailboxes).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import _PROCESSED, Environment, Event

__all__ = ["Request", "Release", "Resource", "Lock", "Store"]


class Request(Event):
    """Pending acquisition of a resource slot.

    Fires when the slot is granted. Must be paired with
    ``resource.release(request)``. Supports use as a context manager in
    process code::

        req = resource.request()
        yield req
        ...critical section...
        resource.release(req)

    An uncontended request is granted *at birth*: it comes back already
    processed (yielding it resumes the process straight away) without a
    trip through the event heap. Contended requests queue and fire when
    a slot frees. Burst code in the NAND layer relies on the birth
    grant: it runs grant continuations synchronously at creation time.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Resource):
        super().__init__(resource.env)
        self.resource = resource
        # Invariant: a non-empty wait queue implies all slots are held
        # (every release immediately re-grants), so a free slot means
        # this request can be granted synchronously.
        if len(resource.users) < resource.capacity and not resource._queue:
            resource.users.append(self)
            self._state = _PROCESSED
            self.callbacks = None
        else:
            resource._queue.append(self)


class Release(Event):
    """Immediate event confirming a release.

    Born already processed: nothing ever waits on a release, so it
    skips the heap entirely (yielding one resumes immediately).
    """

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env)
        self._state = _PROCESSED
        self.callbacks = None


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._queue: deque[Request] = deque()
        self._release_ev: Release | None = None

    # public API --------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        if request not in self.users:
            raise ValueError("releasing a request that does not hold the resource")
        self.users.remove(request)
        # A Release is stateless (born processed, no callbacks), so one
        # shared instance per resource serves every confirmation.
        ev = self._release_ev
        if ev is None:
            ev = self._release_ev = Release(self.env)
        self._trigger()
        return ev

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            nxt = self._queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Lock(Resource):
    """Convenience: a capacity-1 resource with hold-time accounting.

    ``held_time`` accumulates total time the lock was held and
    ``contended_time`` accumulates waiter-observed waiting time, which
    feeds the file-system contention tables (paper Table 2).
    """

    def __init__(self, env: Environment):
        super().__init__(env, capacity=1)
        self.held_time = 0.0
        self.contended_time = 0.0
        self._acquired_at: dict[Request, float] = {}
        self._requested_at: dict[Request, float] = {}

    def request(self) -> Request:
        req = super().request()
        if not req.triggered:
            self._requested_at[req] = self.env.now

        def _on_grant(ev: Event) -> None:
            self._acquired_at[req] = self.env.now
            t0 = self._requested_at.pop(req, None)
            if t0 is not None:
                self.contended_time += self.env.now - t0

        if req.triggered:
            self._acquired_at[req] = self.env.now
        else:
            req.callbacks.append(_on_grant)  # type: ignore[union-attr]
        return req

    def release(self, request: Request) -> Release:
        t0 = self._acquired_at.pop(request, None)
        if t0 is not None:
            self.held_time += self.env.now - t0
        return super().release(request)

    @property
    def locked(self) -> bool:
        return self.count > 0


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: Store, item: Any):
        super().__init__(store.env)
        self.item = item
        # Accepted at birth when there is room and no earlier put is
        # blocked (FIFO fairness); the heap is only involved when the
        # put must wait for space.
        if not store._puts and len(store.items) < store.capacity:
            store.items.append(item)
            self._state = _PROCESSED
            self.callbacks = None
            if store._gets:
                store._trigger()
        else:
            store._puts.append(self)
            store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: Store):
        super().__init__(store.env)
        if not store._gets and store.items:
            self._value = store.items.popleft()
            self._state = _PROCESSED
            self.callbacks = None
            if store._puts:
                store._trigger()
        else:
            store._gets.append(self)
            store._trigger()


class Store:
    """FIFO item queue with optional capacity (blocking puts when full).

    Models SQ/CQ rings and inter-process mailboxes. ``put`` returns an
    event that fires once the item is accepted; ``get`` returns an event
    that fires with the next item.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._puts: deque[StorePut] = deque()
        self._gets: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._puts and len(self.items) < self.capacity:
                put = self._puts.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._gets and self.items:
                get = self._gets.popleft()
                get.succeed(self.items.popleft())
                progressed = True
