"""Tests for locks, resources, and stores."""

import pytest

from repro.sim import Environment, Lock, Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1 = res.request()
    r2 = res.request()
    r3 = res.request()
    env.run(until=0)
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_len == 1


def test_resource_release_grants_next():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r1)
    assert r2.triggered
    assert res.count == 1


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()  # queued, never granted
    with pytest.raises(ValueError):
        res.release(r2)
    res.release(r1)


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(i):
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(1)
        res.release(req)

    for i in range(4):
        env.process(user(i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_request_cancel_removes_from_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r2.cancel()
    assert res.queue_len == 0
    res.release(r1)
    assert not r2.triggered


def test_lock_accounting_held_and_contended():
    env = Environment()
    lock = Lock(env)

    def first():
        req = lock.request()
        yield req
        yield env.timeout(4)
        lock.release(req)

    def second():
        yield env.timeout(1)
        req = lock.request()
        yield req  # waits from t=1 to t=4
        yield env.timeout(2)
        lock.release(req)

    env.process(first())
    env.process(second())
    env.run()
    assert lock.held_time == pytest.approx(6.0)  # 4 + 2
    assert lock.contended_time == pytest.approx(3.0)
    assert not lock.locked


def test_lock_uncontended_has_zero_wait():
    env = Environment()
    lock = Lock(env)

    def user():
        req = lock.request()
        yield req
        yield env.timeout(1)
        lock.release(req)

    env.process(user())
    env.run()
    assert lock.contended_time == 0.0
    assert lock.held_time == pytest.approx(1.0)


def test_lock_forgets_a_cancelled_waiter():
    """Regression: a cancelled waiter stayed in the lock's request-time
    map (with its grant closure) for as long as the lock lived."""
    env = Environment()
    lock = Lock(env)
    a = lock.request()
    b = lock.request()
    b.cancel()
    assert b not in lock._requested_at
    lock.release(a)
    env.run()
    assert not b.triggered
    assert lock._requested_at == {} and lock.contended_time == 0.0


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            v = yield store.get()
            got.append((env.now, v))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [v for _, v in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        v = yield store.get()
        got.append((env.now, v))

    def producer():
        yield env.timeout(5)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(5, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    events = []

    def producer():
        yield store.put("a")
        events.append(("a-in", env.now))
        yield store.put("b")
        events.append(("b-in", env.now))

    def consumer():
        yield env.timeout(3)
        v = yield store.get()
        events.append(("got-" + v, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("a-in", 0) in events
    assert ("b-in", 3) in events  # b only enters once a leaves


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("x")
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2
