"""KernelCosts + CpuAccount tests."""

import pytest

from repro.kernel import CpuAccount, KernelCosts
from repro.sim import Environment


def _spend(acct, component, dt):
    """The guarded charge idiom: an uncontended charge is absorbed (the
    clock has moved already) and there is nothing to wait for."""
    ev = acct.charge(component, dt)
    if ev is not None:
        yield ev


def test_copy_time_scales_linearly():
    c = KernelCosts()
    assert c.copy_time(0) == 0.0
    assert c.copy_time(2 * 1024**3) == pytest.approx(2 * 1024**3 / c.copy_bandwidth)


def test_costs_validation():
    with pytest.raises(ValueError):
        KernelCosts(copy_bandwidth=0)
    with pytest.raises(ValueError):
        KernelCosts(syscall_overhead=-1)


def test_account_charge_consumes_sim_time():
    env = Environment()
    acct = CpuAccount(env, "p")

    def proc():
        yield from _spend(acct, "fs", 5e-6)
        yield from _spend(acct, "fs", 3e-6)
        yield from _spend(acct, "copy", 1e-6)

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(9e-6)
    assert acct.time_in("fs") == pytest.approx(8e-6)
    assert acct.time_in("copy") == pytest.approx(1e-6)
    assert acct.total_charged() == pytest.approx(9e-6)


def test_account_note_does_not_consume_time():
    env = Environment()
    acct = CpuAccount(env, "p")
    acct.note("ssd_wait", 1.0)
    assert env.now == 0.0
    assert acct.time_in("ssd_wait") == 1.0


def test_account_share_of():
    env = Environment()
    acct = CpuAccount(env, "p")
    acct.note("fs", 0.12)
    assert acct.share_of("fs", 1.0) == pytest.approx(0.12)
    assert acct.share_of("fs", 0.0) == 0.0


def test_account_rejects_negative():
    env = Environment()
    acct = CpuAccount(env, "p")
    with pytest.raises(ValueError):
        acct.note("x", -1)

    with pytest.raises(ValueError):
        acct.charge("x", -1)


def test_account_breakdown_snapshot():
    env = Environment()
    acct = CpuAccount(env, "p")
    acct.note("a", 1)
    acct.note("b", 2)
    assert acct.breakdown() == {"a": 1, "b": 2}


def test_charge_zero_dt_yields_no_timeout():
    """A dt=0 charge must return None — the caller would pay a
    scheduler round-trip (and a heap event) for nothing."""
    env = Environment()
    acct = CpuAccount(env, "p")
    assert acct.charge("fs", 0.0) is None
    assert acct.time_in("fs") == 0.0
    assert env.now == 0.0
    # and it still registers the component for breakdown purposes
    assert "fs" in acct.breakdown()


def test_charge_zero_between_real_charges_keeps_attribution():
    env = Environment()
    acct = CpuAccount(env, "p")

    def proc():
        yield from _spend(acct, "fs", 2e-6)
        assert acct.charge("fs", 0.0) is None
        yield from _spend(acct, "fs", 3e-6)

    env.run(until=env.process(proc()))
    assert env.now == pytest.approx(5e-6)
    assert acct.time_in("fs") == pytest.approx(5e-6)


def test_note_vs_charge_attribution():
    """note() attributes without consuming time; charge() does both —
    and they accumulate into the same component ledger."""
    env = Environment()
    acct = CpuAccount(env, "p")

    def proc():
        yield from _spend(acct, "ssd_wait", 1e-6)

    env.run(until=env.process(proc()))
    acct.note("ssd_wait", 4e-6)
    assert env.now == pytest.approx(1e-6)  # only the charge advanced time
    assert acct.time_in("ssd_wait") == pytest.approx(5e-6)
    assert acct.total_charged() == pytest.approx(5e-6)
