"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)
from repro.sim.engine import Initialize


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)
        assert env.now == 3.5

    p = env.process(proc())
    env.run()
    assert p.processed
    assert env.now == 3.5


def test_timeout_value_passed_back():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("pooled", [False, True])
def test_nan_delay_rejected(pooled):
    # NaN compares false against everything, so a `delay < 0` guard let
    # it through and it became a NaN heap key
    env = Environment()
    if pooled:
        def tick():
            yield env.timeout(0)

        env.process(tick())
        env.run()
        assert env._timeout_pool, "no pooled timeout to reuse"
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    with pytest.raises(ValueError):
        env.at(float("nan"))
    with pytest.raises(ValueError):
        env.idle_wait(float("nan"))
    with pytest.raises(ValueError):
        env.run(until=float("nan"))
    assert not env.ff_advance(float("nan"))


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    env.run()
    assert p.value == 42


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for i in range(5):
        env.process(proc(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_waits_on_process():
    env = Environment()
    trace = []

    def child():
        yield env.timeout(4)
        trace.append(("child", env.now))
        return "payload"

    def parent():
        v = yield env.process(child())
        trace.append(("parent", env.now, v))

    env.process(parent())
    env.run()
    assert trace == [("child", 4), ("parent", 4, "payload")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        v = yield ev
        seen.append((env.now, v))

    def firer():
        yield env.timeout(7)
        ev.succeed("sig")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert seen == [(7, "sig")]


def test_event_double_succeed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    env.event().fail(RuntimeError("unattended"))
    with pytest.raises(RuntimeError, match="unattended"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("inner")

    def outer():
        with pytest.raises(ValueError, match="inner"):
            yield env.process(bad())

    p = env.process(outer())
    env.run(until=p)


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    trace = []

    def proc():
        yield env.timeout(3)
        v = yield ev  # ev processed long ago
        trace.append((env.now, v))

    env.process(proc())
    env.run()
    assert trace == [(3, "early")]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def attacker(p):
        yield env.timeout(2)
        p.interrupt("stop it")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [(2, "stop it")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_rewait():
    env = Environment()
    log = []

    def victim():
        to = env.timeout(10)
        try:
            yield to
        except Interrupt:
            log.append(("interrupted", env.now))
        yield to  # original timeout still pending; wait it out
        log.append(("resumed", env.now))

    def attacker(p):
        yield env.timeout(3)
        p.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [("interrupted", 3), ("resumed", 10)]


def test_self_interrupt_rejected():
    env = Environment()

    def proc():
        with pytest.raises(SimulationError):
            env.active_process.interrupt()
        yield env.timeout(0)

    env.process(proc())
    env.run()


def test_allof_waits_for_all():
    env = Environment()
    done_at = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield AllOf(env, [t1, t2])
        done_at.append(env.now)
        assert result[t1] == "a"
        assert result[t2] == "b"

    env.process(proc())
    env.run()
    assert done_at == [5]


def test_anyof_fires_on_first():
    env = Environment()
    done = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        done.append((env.now, t1 in result, t2 in result))

    env.process(proc())
    env.run()
    assert done == [(1, True, False)]


def test_empty_allof_fires_immediately():
    env = Environment()
    fired = []

    def proc():
        yield AllOf(env, [])
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [0]


def test_condition_failure_propagates():
    env = Environment()
    ev = env.event()

    def proc():
        with pytest.raises(RuntimeError):
            yield AllOf(env, [env.timeout(5), ev])

    def failer():
        yield env.timeout(1)
        ev.fail(RuntimeError("member died"))

    p = env.process(proc())
    env.process(failer())
    env.run(until=p)


def test_peek_and_step():
    env = Environment()
    env.timeout(3)
    env.timeout(1)
    assert env.peek() == 1
    env.step()
    assert env.now == 1
    assert env.peek() == 3


def test_step_empty_heap_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_unreachable_event_raises():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_many_processes_determinism():
    """Two identical runs produce the identical completion order."""

    def build():
        env = Environment()
        order = []

        def proc(i):
            yield env.timeout((i * 7) % 5 + 1)
            order.append(i)

        for i in range(50):
            env.process(proc(i))
        env.run()
        return order

    assert build() == build()


# -- the inline-resume gate ---------------------------------------------------
# A process that yields an already-processed event continues inline only
# when the classic wake-up event would have been the very next dispatch:
# its resume is the firing event's last callback and nothing else is due
# at this instant. These pin both halves of that proof condition; there
# is no switch that turns the inline path off, so the order below is the
# only oracle for it.

def _spent(env):
    """An event whose callbacks have already run."""
    ev = env.event().succeed()
    env.run()
    assert ev.processed
    return ev


def _wakes_then_yields_spent(first, spent, order):
    yield first
    order.append("woke")
    yield spent
    order.append("continued")


def test_inline_resume_on_a_quiet_heap():
    env = Environment()
    spent = _spent(env)
    before = env.events_processed
    order = []

    def proc():
        yield env.timeout(1.0)
        order.append("woke")
        yield spent
        yield spent
        order.append("continued")

    env.process(proc())
    env.run()
    assert order == ["woke", "continued"]
    # Initialize + the timeout + the process's own completion: neither
    # yield of the spent event went through the heap
    assert env.events_processed - before == 3


def test_resume_yields_to_a_pending_sibling_callback():
    env = Environment()
    spent = _spent(env)
    gate = env.event()
    order = []

    env.process(_wakes_then_yields_spent(gate, spent, order))
    env.run()  # parks proc on the gate
    gate.callbacks.append(lambda _ev: order.append("sibling"))
    before = env.events_processed
    gate.succeed()
    env.run()
    # the resume was not the gate's last callback: the heap round-trip
    # wins, so the sibling sees the world before proc moves on
    assert order == ["woke", "sibling", "continued"]
    # the gate + the wake-up event + the process's completion
    assert env.events_processed - before == 3


def test_resume_as_last_of_several_callbacks_is_inline():
    env = Environment()
    spent = _spent(env)
    gate = env.event()
    gate.callbacks.append(lambda _ev: order.append("sibling"))
    order = []

    env.process(_wakes_then_yields_spent(gate, spent, order))
    env.run()
    before = env.events_processed
    gate.succeed()
    env.run()
    assert order == ["sibling", "woke", "continued"]
    assert env.events_processed - before == 2  # no wake-up event


def test_resume_yields_to_another_event_due_at_the_same_instant():
    env = Environment()
    spent = _spent(env)
    order = []

    def rival():
        yield env.timeout(1.0)
        order.append("rival")

    env.process(_wakes_then_yields_spent(env.timeout(1.0), spent, order))
    env.process(rival())
    env.run()
    # rival's timeout was scheduled before proc's wake-up could be:
    # FIFO at one instant puts it first
    assert order == ["woke", "rival", "continued"]


def test_initialize_runs_ahead_of_entries_due_at_the_same_instant():
    # the start of a process, and of anything else that must begin
    # where a process would (repro.net's sessions), is one rule
    env = Environment()
    order = []
    ev = env.event()
    ev.callbacks.append(lambda _ev: order.append("ordinary"))
    ev.succeed()
    Initialize(env, lambda _ev: order.append("first"))
    env.run()
    assert order == ["first", "ordinary"]


@pytest.mark.parametrize("until", ["exhaust", "event", "time", "step"])
def test_events_processed_is_exact_inside_a_run(until):
    """A read inside ``run()`` sees every dispatch made so far, not the
    count from before that run started: windowed counts (a measurement
    opened from inside a run) must not include what came before."""
    env = Environment()
    seen = []

    def proc():
        for _ in range(5):
            yield env.timeout(1.0)
            seen.append(env.events_processed)

    p = env.process(proc())
    if until == "exhaust":
        env.run()
    elif until == "event":
        env.run(until=p)
    elif until == "time":
        env.run(until=10.0)
    else:
        while env.peek() < float("inf"):
            env.step()
    # Initialize, then each timeout: the k-th read is the (k+1)-th dispatch
    assert seen == [2, 3, 4, 5, 6]
    assert env.events_processed == 7  # + the process's completion
