"""Core event loop: environment, events, timeouts, processes.

The design follows the classic process-interaction style (as in simpy):

* :class:`Event` — a one-shot occurrence with callbacks and a value.
* :class:`Timeout` — an event scheduled ``delay`` time units ahead.
* :class:`Process` — wraps a generator; each ``yield``ed event suspends
  the process until the event fires, at which point the event's value
  is sent back into the generator (or its exception thrown).
* :class:`Environment` — the clock plus the pending-event heap.

Time is a float. The engine is single-threaded and deterministic:
events scheduled for the same instant fire in FIFO order of scheduling
(stable tiebreak by a monotonically increasing sequence number).

Fast path
---------

The hot loop is tuned for bulk simulation without changing observable
ordering:

* heap entries are 3-tuples ``(when, key, event)`` where ``key`` folds
  the (priority, seq) tiebreak into one integer — less tuple churn per
  schedule/pop;
* :meth:`Environment.timeout` recycles :class:`Timeout` objects from a
  pool once their callbacks have run and no outside reference remains
  (checked via ``sys.getrefcount``, so user-held timeouts — e.g.
  members of an :class:`AnyOf` deadline — are never reused);
* when a process yields an event that is *already processed*,
  :meth:`Process._resume` continues the generator inline instead of
  scheduling a synthetic wake-up event — but only when that is
  provably order-identical to the heap round-trip: the resume must be
  the last callback of the firing event and no other event may be
  scheduled at the current instant. Otherwise the wake-up goes through
  the heap. ``tests/sim/test_engine.py`` pins the order in both cases.

Quiescence fast-forward
-----------------------

Pure delays are *absorbed* — the clock advances immediately and the
waiting code continues inline — whenever the engine can prove the heap
round-trip would have been a no-op:

* the caller is running in the last callback of the current dispatch
  (``_cb_last``, the same gate the inline resume uses), so no sibling
  callback still expects the old ``now``;
* no event is scheduled at or before the target instant, so nothing
  else could have run in between; and
* the target instant does not overrun the active ``run(until=t)``
  bound, so a time-bounded run parks exactly where a dispatched
  timeout would have left it.

Every absorbed delay is counted in :attr:`Environment.events_absorbed`,
so ``events_processed + events_absorbed`` — the *logical* event total
reported by :func:`tracked_event_total` — is what a loop that
dispatched every delay would have counted.
:meth:`Environment.idle_wait` extends the same contract to periodic
polling loops: consecutive idle poll ticks whose predicate provably
cannot change (no dispatch can occur before the next foreign event)
collapse into one scheduled wake-up. ``tests/sim/test_fast_forward.py``
runs whole systems on a subclass that never absorbs and requires the
same keyspace, counters and logical event total.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator, Iterable
from collections.abc import Callable
from sys import getrefcount
from typing import Any

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Environment",
    "track_environments",
    "tracked_event_total",
    "tracked_dispatch_total",
]

#: when enabled (perf harness only), every Environment created registers
#: itself here so a measurement shell can total events_processed across
#: all the environments an experiment builds internally.
_tracked_envs: list["Environment"] | None = None


def track_environments(enable: bool) -> None:
    """Start (or stop) recording every Environment created from now on.

    Measurement hook for :mod:`repro.bench.perf`: an experiment may
    build many systems, each with its own environment; tracking lets
    the harness sum dispatched events without threading a counter
    through every constructor. Disabling clears the list.
    """
    global _tracked_envs
    _tracked_envs = [] if enable else None


def tracked_event_total() -> int:
    """Total logical events executed by environments created while
    tracking: heap dispatches plus closed-form absorptions, so the
    figure does not move with how much of a run was absorbed."""
    return sum(
        env.events_processed + env.events_absorbed
        for env in _tracked_envs or ()
    )


def tracked_dispatch_total() -> int:
    """Heap dispatches alone (``events_processed``) of environments
    created while tracking: unlike the logical total, it moves when a
    dispatch is merged away or absorbed."""
    return sum(env.events_processed for env in _tracked_envs or ())


class SimulationError(Exception):
    """Raised for misuse of the engine (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries whatever object the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot event.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, scheduling its callbacks to run at the current
    simulation time. Processes wait on events by ``yield``ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_state", "_defused")

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._state = _PENDING
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("value of untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> Event:
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> Event:
        """Trigger the event with an exception.

        A failed event that nobody waits on raises at the end of the
        run unless :meth:`defused` was set by a waiter.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._exc = exc
        self._state = _TRIGGERED
        self.env._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        if callbacks:
            env = self.env
            if len(callbacks) == 1:
                env._cb_last = True
                callbacks[0](self)
            else:
                # _cb_last gates Process._resume's inline fast path: a
                # resume that is not the final callback must keep the
                # heap round-trip so its siblings run first.
                env._cb_last = False
                for cb in callbacks[:-1]:
                    cb(self)
                env._cb_last = True
                callbacks[-1](self)
        if self._exc is not None and not self._defused:
            raise self._exc

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}[
            self._state
        ]
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None):
        if not delay >= 0:  # NaN-safe
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._state = _TRIGGERED
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal: calls ``callback`` at this instant ahead of ordinary
    entries — where a freshly created process takes its first step."""

    __slots__ = ()

    def __init__(self, env: Environment, callback: Callable[[Event], None]):
        super().__init__(env)
        self.callbacks.append(callback)  # type: ignore[union-attr]
        self._value = None
        self._state = _TRIGGERED
        env._schedule(self, priority=0)


class Process(Event):
    """A running process; also an event that fires when it terminates.

    The wrapped generator yields :class:`Event` instances. When a
    yielded event succeeds, its value is sent into the generator; when
    it fails, the exception is thrown in (and the event is defused, so
    the failure does not crash the run unless it escapes the process).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: Environment,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self._resume)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process is rescheduled immediately; the event it was
        waiting on stays pending (the process may re-wait on it).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.env)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)  # type: ignore[union-attr]
        interrupt_ev.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        # Detach from the event we were waiting for (on interrupt, the
        # original target may still be pending; drop our callback).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        if not self.is_alive:
            return

        env = self.env
        while True:
            env._active = self
            try:
                if event._exc is None:
                    next_ev = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_ev = self._generator.throw(event._exc)
            except StopIteration as stop:
                env._active = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active = None
                self.fail(exc)
                return
            env._active = None

            if not isinstance(next_ev, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}"
                )
            if next_ev.env is not env:
                raise SimulationError(
                    "yielded event belongs to another environment"
                )
            if next_ev.callbacks is None:
                # Already processed. Continuing the generator inline is
                # order-identical to the classic synthetic wake-up event
                # only when that wake-up would have been the very next
                # thing to run (see _may_continue_inline).
                if env._may_continue_inline():
                    event = next_ev
                    continue
                # Fallback: resume via the heap at the current time.
                immediate = Event(env)
                immediate.callbacks.append(self._resume)  # type: ignore[union-attr]
                self._target = immediate
                if next_ev._exc is None:
                    immediate.succeed(next_ev._value)
                else:
                    next_ev._defused = True
                    immediate.fail(next_ev._exc)
            else:
                next_ev.callbacks.append(self._resume)
                self._target = next_ev
            return


class ConditionValue:
    """Ordered mapping of event -> value for fired condition members."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value


class _Condition(Event):
    """Base for AllOf/AnyOf — fires when ``_check`` is satisfied."""

    __slots__ = ("_events", "_fired_count")

    def __init__(self, env: Environment, events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._fired_count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition spans environments")
        # Register after validation so no callbacks dangle on error.
        for ev in self._events:
            if ev.callbacks is None:
                self._on_member(ev)
            else:
                ev.callbacks.append(self._on_member)
        if not self._events and self._state == _PENDING:
            self.succeed(ConditionValue())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _on_member(self, event: Event) -> None:
        if self._state != _PENDING:
            if event._exc is not None:
                event._defused = True
            return
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
            return
        self._fired_count += 1
        if self._satisfied():
            value = ConditionValue()
            for ev in self._events:
                # A Timeout is "triggered" from birth (it is scheduled);
                # only count members whose callbacks have actually run.
                if ev.processed and ev._exc is None:
                    value.events.append(ev)
            self.succeed(value)


class AllOf(_Condition):
    """Fires when every member event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired_count == len(self._events)


class AnyOf(_Condition):
    """Fires when at least one member event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired_count >= 1


# Initialize events (priority 0) must sort before ordinary events
# (priority 1) at the same instant regardless of sequence number; the
# bias folds that two-level tiebreak into a single integer key.
_INIT_BIAS = 1 << 62

#: upper bound on recycled Timeout objects kept per environment
_TIMEOUT_POOL_MAX = 4096


class Environment:
    """The simulation clock and event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active: Process | None = None
        self._cb_last = True
        self._until = float("inf")
        self._timeout_pool: list[Timeout] = []
        #: number of delays absorbed in closed form (each one a heap
        #: dispatch a timeout would have cost)
        self.events_absorbed = 0
        if _tracked_envs is not None:
            _tracked_envs.append(self)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active

    @property
    def events_processed(self) -> int:
        """Heap events dispatched so far (perf accounting).

        Every push takes the next sequence number and every dispatch
        pops exactly one entry, so pushes minus entries still queued is
        the dispatch count: exact at any read, inside :meth:`run`
        included, and the dispatch loop keeps no counter.
        """
        return self._seq - len(self._heap)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:  # NaN-safe
                raise ValueError(f"negative delay {delay}")
            to = pool.pop()
            to.delay = delay
            to._value = value
            to._exc = None
            to._defused = False
            to.callbacks = []
            to._state = _TRIGGERED
            self._schedule(to, delay=delay)
            return to
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the *absolute* simulation time ``when``.

        Unlike :meth:`timeout`, the firing instant is stored exactly as
        given instead of being recomputed as ``now + delay`` — so two
        code paths that schedule from different "now"s still fire at
        bit-identical instants when they compute ``when`` with the same
        arithmetic. The NAND burst model relies on this to keep its
        closed-form completions bit-identical to a page-at-a-time
        chain of timeouts.
        """
        ev = Event(self)
        ev._value = value
        ev._state = _TRIGGERED
        self.schedule_at(ev, when)
        return ev

    def schedule_at(self, event: Event, when: float) -> None:
        """Push an existing ``event`` onto the heap at absolute ``when``.

        The entry gets the next sequence number, exactly as
        :meth:`at` or a zero-delay :meth:`Event.succeed` at ``now``
        would give a new event, and dispatching it runs its callbacks
        as for any event. An event may be pushed again after it has
        been dispatched once its ``callbacks`` are set anew (dispatch
        leaves them ``None``): that is how :mod:`repro.flash.nand` makes
        one object per page operation serve as both the operation's
        die grant and its completion.
        """
        if not when >= self._now:  # NaN-safe
            raise ValueError(f"at({when}) is in the past (now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, event))

    def _may_continue_inline(self) -> bool:
        """True when a zero-delay wake-up pushed now would be the very
        next dispatch, so running it inline is order-identical to the
        heap round-trip: the current callback is the firing event's
        last and nothing else is scheduled at this instant."""
        if not self._cb_last:
            return False
        heap = self._heap
        return not heap or heap[0][0] > self._now

    # -- quiescence fast-forward --------------------------------------------
    def ff_advance(self, dt: float) -> bool:
        """Absorb a pure delay in closed form; True if the clock moved.

        Equivalent to dispatching a fresh ``timeout(dt)`` that nothing
        else observes: allowed only when the caller runs in the last
        callback of the current dispatch, no event is scheduled at or
        before ``now + dt`` (strict — a tie would have dispatched
        first), and the target stays within the active ``run(until=t)``
        bound. On success the absorbed dispatch is credited to
        :attr:`events_absorbed`, keeping the logical event total
        what it would have been.
        """
        if not self._cb_last or not dt > 0:
            return False
        t = self._now + dt
        if t > self._until:
            return False
        heap = self._heap
        if heap and heap[0][0] <= t:
            return False
        self._now = t
        self.events_absorbed += 1
        return True

    def ff_credit(self, events: int) -> None:
        """Record ``events`` heap dispatches replayed in closed form.

        Used by cooperative periodic sources (e.g. the WAL flusher's
        idle-tick absorber) that collapse a run of provably side-effect
        -replayed wake-ups into one scheduled event.
        """
        self.events_absorbed += events

    def ff_absorb_ticks(
        self, interval: float, max_ticks: int = 4096
    ) -> tuple[int, Event | None]:
        """Closed-form run of periodic wake-ups: how many future ticks
        (``now+i, now+2i, ...``) land strictly before the next scheduled
        event and within the run bound, plus the event firing at the
        last of them. Returns ``(0, None)`` when even the first tick
        could be raced by a foreign event (ties lose: an equal-time
        event was scheduled earlier and dispatches first).

        Wake instants accumulate iteratively (``wake += interval``) so
        they stay bit-identical to the tick-by-tick realization. The
        caller owns replaying the per-tick side effects and crediting
        the absorbed dispatches via :meth:`ff_credit`.
        """
        wake = self._now
        horizon = self._heap[0][0] if self._heap else float("inf")
        until = self._until
        k = 0
        while k < max_ticks:
            nxt = wake + interval
            if nxt >= horizon or nxt > until:
                break
            wake = nxt
            k += 1
        if k:
            return k, self.at(wake)
        return 0, None

    def idle_wait(self, interval: float) -> Event:
        """One poll tick that fast-forwards across provably idle ticks.

        Drop-in for ``timeout(interval)`` inside state-polling loops of
        the form ``while pred(): yield env.idle_wait(dt)`` where
        ``pred`` reads only simulation state (never ``env.now``): when
        k consecutive wake-ups would land strictly before the next
        scheduled event, the predicate cannot change in between (state
        only moves on dispatches), so the loop wakes once at the k-th
        tick instead.
        """
        if not interval > 0:  # NaN-safe
            raise ValueError(f"non-positive poll interval {interval}")
        k, ev = self.ff_absorb_ticks(interval)
        if ev is None:
            return self.timeout(interval)
        # one dispatch (the returned event) stands in for k ticks
        self.events_absorbed += k - 1
        return ev

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self._now + delay, seq if priority else seq - _INIT_BIAS, event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def _recycle(self, event: Event) -> None:
        """Return a spent Timeout to the pool if nothing references it.

        Exactly two references exist when the pop locals are the only
        holders (the caller's variable plus getrefcount's argument), so
        timeouts stashed by user code — deadline members of a
        condition, re-waited timeouts — are never recycled.
        """
        if (
            type(event) is Timeout
            and getrefcount(event) == 3
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
        ):
            self._timeout_pool.append(event)

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimulationError("no more events")
        when, _key, event = heapq.heappop(self._heap)
        self._now = when
        event._run_callbacks()
        self._recycle(event)

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until=None`` — run until the heap empties.
        * number — run until the clock reaches that time.
        * :class:`Event` — run until it fires; returns its value.
        """
        heap = self._heap
        pool = self._timeout_pool
        heappop = heapq.heappop
        if until is None:
            while heap:
                when, _key, event = heappop(heap)
                self._now = when
                event._run_callbacks()
                if (
                    type(event) is Timeout
                    and getrefcount(event) == 2
                    and len(pool) < _TIMEOUT_POOL_MAX
                ):
                    pool.append(event)
            return None
        if isinstance(until, Event):
            sentinel: list[Any] = []
            if until.callbacks is not None:
                until.callbacks.append(lambda ev: sentinel.append(ev))
            else:
                sentinel.append(until)
            while not sentinel:
                if not heap:
                    raise SimulationError(
                        "event heap exhausted before awaited event fired"
                    )
                when, _key, event = heappop(heap)
                self._now = when
                event._run_callbacks()
                if (
                    type(event) is Timeout
                    and getrefcount(event) == 2
                    and len(pool) < _TIMEOUT_POOL_MAX
                ):
                    pool.append(event)
            return until.value
        stop_at = float(until)
        if not stop_at >= self._now:  # NaN-safe
            raise ValueError(
                f"until={stop_at} is in the past (now={self._now})"
            )
        # fast-forward must not absorb a delay (or replay a periodic
        # tick) past the run bound: a dispatched timeout would have
        # left the run parked there with the wait still pending
        prev_until = self._until
        self._until = stop_at
        try:
            while heap and heap[0][0] <= stop_at:
                when, _key, event = heappop(heap)
                self._now = when
                event._run_callbacks()
                if (
                    type(event) is Timeout
                    and getrefcount(event) == 2
                    and len(pool) < _TIMEOUT_POOL_MAX
                ):
                    pool.append(event)
            self._now = stop_at
        finally:
            self._until = prev_until
        return None
