"""fork/CoW model tests."""

import math

import pytest

from repro.imdb import CowMemory
from repro.imdb.memory import FAULT_OVERHEAD, PAGE_COPY_TIME, PT_COPY_PER_PAGE
from repro.kernel import CpuAccount
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def acct(env):
    return CpuAccount(env, "parent")


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def fork(cow, heap_pages, acct):
    """The server's fork: arm at the fork instant, then the PT copy."""
    cow.arm(heap_pages)
    yield from cow.pt_copy_stall(acct)


def test_fork_charges_pt_copy(env, acct):
    cow = CowMemory(env)

    def proc():
        yield from fork(cow, 1000, acct)

    drive(env, proc())
    assert env.now == pytest.approx(1000 * PT_COPY_PER_PAGE)
    assert acct.time_in("fork") == pytest.approx(1000 * PT_COPY_PER_PAGE)
    assert cow.snapshot_active


def test_touch_copies_shared_pages_once(env, acct):
    cow = CowMemory(env, page_size=4096)

    def proc():
        yield from fork(cow, 10, acct)
        n1 = yield from cow.touch(2, 3, acct)
        n2 = yield from cow.touch(2, 3, acct)  # already copied
        return n1, n2

    n1, n2 = drive(env, proc())
    assert n1 == 3
    assert n2 == 0
    assert cow.copied_pages == 3
    assert cow.cow_faults == 1
    assert cow.extra_bytes == 3 * 4096


def test_touch_outside_fork_is_free(env, acct):
    cow = CowMemory(env)

    def proc():
        n = yield from cow.touch(0, 5, acct)
        return n

    assert drive(env, proc()) == 0
    assert env.now == 0


def test_pages_allocated_after_fork_not_shared(env, acct):
    cow = CowMemory(env)

    def proc():
        yield from fork(cow, 10, acct)
        n = yield from cow.touch(50, 2, acct)  # beyond fork-point heap
        return n

    assert drive(env, proc()) == 0


def test_reap_frees_extra_memory(env, acct):
    cow = CowMemory(env, page_size=4096)

    def proc():
        yield from fork(cow, 10, acct)
        yield from cow.touch(0, 10, acct)
        assert cow.extra_bytes == 10 * 4096
        cow.reap()

    drive(env, proc())
    assert cow.extra_bytes == 0
    assert not cow.snapshot_active


def test_double_fork_rejected(env, acct):
    cow = CowMemory(env)

    def proc():
        yield from fork(cow, 5, acct)
        yield from fork(cow, 5, acct)

    env.process(proc())
    with pytest.raises(RuntimeError):
        env.run()


def test_reap_without_fork_rejected(env):
    cow = CowMemory(env)
    with pytest.raises(RuntimeError):
        cow.reap()


def test_second_fork_generation_after_reap(env, acct):
    cow = CowMemory(env)

    def proc():
        yield from fork(cow, 5, acct)
        yield from cow.touch(0, 5, acct)
        cow.reap()
        yield from fork(cow, 8, acct)
        n = yield from cow.touch(0, 5, acct)  # shared again
        return n

    assert drive(env, proc()) == 5
    assert cow.copied_pages == 10


def test_cow_cost_scales_with_pages(env, acct):
    cow = CowMemory(env)

    def proc():
        yield from fork(cow, 100, acct)
        t0 = env.now
        yield from cow.touch(0, 10, acct)
        return env.now - t0

    assert drive(env, proc()) == pytest.approx(FAULT_OVERHEAD
                                               + 10 * PAGE_COPY_TIME)


def test_fork_model_validation():
    """The fork/CoW constants are finite charges >= 0."""
    for value in (PT_COPY_PER_PAGE, FAULT_OVERHEAD, PAGE_COPY_TIME):
        assert math.isfinite(value) and value >= 0
