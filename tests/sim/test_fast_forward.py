"""Quiescence fast-forward: the primitives, and the loop they replace.

Fast-forward has no off switch, so nothing under ``src/`` can serve as
its reference. Two things here do instead:

* the primitive contracts — when ``ff_advance`` may absorb, how
  ``idle_wait`` collapses poll ticks — checked against hand-written
  ``timeout`` loops;
* :class:`ClassicEnvironment`, a test-side engine that never absorbs
  anything: whole systems run on both engines and must end with the
  same keyspace, the same counters and the same logical event total
  (``events_processed + events_absorbed``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.kernel.accounting import CpuAccount
from repro.sim import Environment


class ClassicEnvironment(Environment):
    """The loop fast-forward stands in for: every delay, every idle
    flusher tick and every poll tick goes through the heap."""

    def ff_advance(self, dt):
        return False

    def ff_absorb_ticks(self, interval, max_ticks=4096):
        return 0, None


def test_ff_advance_absorbs_pure_delay():
    env = Environment()
    seen = []

    def proc():
        assert env.ff_advance(5.0)  # quiet heap: absorbed inline
        seen.append(env.now)
        yield env.timeout(1.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0, 6.0]
    assert env.events_absorbed == 1


def test_ff_advance_refuses_earlier_or_equal_event():
    env = Environment()

    def other():
        yield env.timeout(3.0)

    def proc():
        assert not env.ff_advance(5.0)  # other's timeout at 3.0 is due
        assert not env.ff_advance(3.0)  # ties lose: dispatch wins
        assert env.ff_advance(2.0)      # strictly before the horizon
        assert env.now == 2.0
        yield env.timeout(0.5)

    env.process(other())
    env.process(proc())
    env.run()
    assert env.events_absorbed == 1


def test_ff_advance_respects_run_until_bound():
    env = Environment()

    def proc():
        assert not env.ff_advance(5.0)  # would overrun run(until=4)
        assert env.ff_advance(3.0)
        yield env.timeout(0.25)

    env.process(proc())
    env.run(until=4.0)
    assert env.now == 4.0


def _poll_run(wait) -> tuple[float, list[float], int]:
    """A poll loop + a state change at t=0.0105: returns (exit time,
    wake instants, logical event total). ``wait(env)`` is one tick."""
    env = Environment()
    state = {"done": False}
    wakes = []

    def setter():
        yield env.timeout(0.0105)
        state["done"] = True

    def poller():
        while not state["done"]:
            yield wait(env)
            wakes.append(env.now)

    env.process(setter())
    env.process(poller())
    env.run()
    return env.now, wakes, env.events_processed + env.events_absorbed


def test_idle_wait_matches_tick_loop_exactly():
    t_ff, wakes_ff, total_ff = _poll_run(lambda env: env.idle_wait(1e-3))
    t_cl, wakes_cl, total_cl = _poll_run(lambda env: env.timeout(1e-3))
    # same exit instant, bit-for-bit (wake instants accumulate by
    # repeated addition in both loops)
    assert t_ff == t_cl
    assert total_ff == total_cl
    # ten idle ticks collapse into one wake at the tenth instant; the
    # eleventh (after the state change) is an ordinary tick
    assert len(wakes_cl) == 11
    assert wakes_ff == wakes_cl[-2:]


def test_charge_absorbs_when_quiescent():
    env = Environment()
    acct = CpuAccount(env, "test")
    seen = []

    def proc():
        ev = acct.charge("cpu", 2.5)
        if ev is not None:  # pragma: no cover - absorbed in this setup
            yield ev
        seen.append(env.now)
        yield env.timeout(0.1)

    env.process(proc())
    env.run()
    assert seen == [2.5]
    assert env.events_absorbed == 1
    assert acct.total_charged() == pytest.approx(2.5)


def test_charge_dispatches_when_contended():
    env = Environment()

    def other():
        yield env.timeout(1.0)

    acct = CpuAccount(env, "test")
    seen = []

    def proc():
        ev = acct.charge("cpu", 2.5)
        if ev is not None:
            yield ev
        seen.append(env.now)

    env.process(other())
    env.process(proc())
    env.run()
    assert seen == [2.5]
    assert env.events_absorbed == 0  # real timeout, dispatched


# -- whole systems on both engines --------------------------------------------

#: 16 MB device, 2 MB WAL trigger: the WAL wraps the device several
#: times, so flash GC erases and copies while the workload runs
GC_SCALE = replace(TEST_SCALE, small_device_mb=16, redis_ops=7_000,
                   redis_keys=300, wal_trigger_bytes=2 * 1024 * 1024)


def _run_system(builder, env):
    """Idle start, SET workload with a mid-run snapshot, idle tail,
    power cut, recovery — every fast-forward site gets traffic: CPU
    charges throughout, idle flusher ticks before the first SET, poll
    loops in the settle and writeback waits."""
    system = builder(env=env,
                     config=GC_SCALE.system_config(gc_pressure=True))
    env.run(until=0.05)
    report = GC_SCALE.redis_bench(snapshot_at_fraction=0.5).run(
        system, warmup_ops=500)
    env.run(until=env.now + 0.03)

    def quiesce():
        yield from system.wal.flush_now()
        cache = getattr(system, "cache", None)
        while cache is not None and cache.dirty_bytes > 0:
            yield env.idle_wait(1e-3)

    env.run(until=env.process(quiesce()))
    expected = system.server.store.as_dict()
    system.crash()
    recovered = env.run(
        until=env.process(system.recover(SnapshotKind.WAL_TRIGGERED)))
    system.stop()
    return system, report, expected, recovered.data


@pytest.mark.parametrize("builder", [build_slimio, build_baseline],
                         ids=["slimio-gc", "baseline"])
def test_system_is_identical_on_an_engine_that_never_absorbs(builder):
    fast, rep_f, expected_f, data_f = _run_system(builder, Environment())
    slow, rep_s, expected_s, data_s = _run_system(builder,
                                                  ClassicEnvironment())
    # the run is worth comparing: absorption happened, and only on one side
    assert fast.env.events_absorbed > 1000
    assert slow.env.events_absorbed == 0
    if builder is build_slimio:
        assert fast.device.ftl.stats.gc_pages_copied > 0

    assert data_f == data_s == expected_f == expected_s
    assert fast.env.now == slow.env.now
    assert (rep_f.rps, rep_f.set_p999, rep_f.waf) == \
        (rep_s.rps, rep_s.set_p999, rep_s.waf)
    # every counter, gauge and histogram — the flusher replays its
    # idle-tick counters in closed form
    assert fast.obs.snapshot() == slow.obs.snapshot()
    assert (fast.env.events_processed + fast.env.events_absorbed
            == slow.env.events_processed)
    # the one visible difference: absorbed idle flusher ticks leave no
    # wal_fsync span behind (only SlimIO's clean WAL-Path ever absorbs)
    elided = (len(slow.obs.spans_named("wal_fsync"))
              - len(fast.obs.spans_named("wal_fsync")))
    assert (elided > 0) == (builder is build_slimio)
