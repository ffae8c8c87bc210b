"""Ablations: which SlimIO design decision buys what.

Beyond the paper's tables: each test isolates one design choice from
§4 (or sweeps one workload parameter) and asserts the direction of its
effect. These are the "design-choice benches" DESIGN.md calls out.
"""

import dataclasses

import pytest

from repro import (
    LoggingPolicy,
    build_baseline,
    build_slimio,
)
from repro.bench.experiments import _cell, _recovered
from repro.bench.scales import TEST_SCALE as SCALE
from repro.bench.sweep import sweep
from repro.workloads import ClosedLoopWorkload, RedisBenchWorkload


def run_config(snapshot_fraction=None, **overrides):
    cfg = SCALE.system_config(gc_pressure=True,
                              policy=LoggingPolicy.ALWAYS, **overrides)
    system = build_slimio(config=cfg)
    workload = RedisBenchWorkload(
        clients=SCALE.redis_clients,
        total_ops=max(SCALE.redis_ops // 2, 2000),
        key_count=SCALE.redis_keys,
        value_size=SCALE.redis_value,
        snapshot_at_fraction=snapshot_fraction,
    )
    rep = workload.run(system, warmup_ops=SCALE.warmup_ops // 2)
    return rep, system


def test_ablation_sqpoll():
    """SQPOLL removes submission syscalls: Always-Log latency drops."""
    out = {}
    for sqpoll in (True, False):
        rep, system = run_config(sqpoll=sqpoll)
        out[sqpoll] = (
            rep, system.obs.total("uring_enter_syscalls_total",
                                  ring="wal-path"))
        system.stop()
    rep_on, syscalls_on = out[True]
    rep_off, syscalls_off = out[False]
    assert syscalls_on == 0
    assert syscalls_off > 0
    # syscall savings are small per op but never negative
    assert rep_on.rps >= rep_off.rps * 0.98


def test_ablation_shared_ring():
    """Separate SQ/CQ pairs (write isolation) vs one shared ring."""
    out = {}
    for shared in (False, True):
        rep, system = run_config(snapshot_fraction=0.5, shared_ring=shared)
        out[shared] = rep
        system.stop()
    # a shared ring couples the snapshot's bulk writes with WAL
    # submissions: snapshots must not get faster, and the combined
    # run must not improve
    assert out[False].mean_snapshot_time <= out[True].mean_snapshot_time * 1.1
    assert out[False].rps >= out[True].rps * 0.95


def test_ablation_fdp_waf():
    """FDP lifetime separation is what keeps WAF at exactly 1.0."""
    out = {}
    for fdp in (True, False):
        rep, system = run_config(snapshot_fraction=0.3, fdp=fdp)
        out[fdp] = (rep, system.device.ftl.stats.gc_pages_copied)
        system.stop()
    assert out[True][0].waf == pytest.approx(1.0)
    assert out[True][1] == 0
    assert out[False][0].waf >= out[True][0].waf


def test_ablation_recovery_readahead():
    """Recovery read-ahead window sweep (Table 5's mechanism)."""
    results = {}
    for window in (1, 8, 64):
        cfg = dataclasses.replace(
            SCALE.system_config(gc_pressure=False, trigger=False),
            recovery_readahead_pages=window,
        )
        _, rec = _cell(build_slimio, cfg, _recovered, loaded=SCALE)
        assert len(rec.data) == SCALE.redis_keys
        results[window] = rec
    # deeper windows overlap more device time with decode CPU
    assert results[64].duration < results[1].duration


def test_value_size_sensitivity():
    """Value size under Always-Log: the paper's two workloads are two
    points of this curve (4096 B redis-bench, 2048 B YCSB), and SlimIO
    wins at every point of it."""

    def runner(params):
        out = {}
        for name, builder in (("baseline", build_baseline),
                              ("slimio", build_slimio)):
            system = builder(config=SCALE.system_config(
                gc_pressure=False, policy=LoggingPolicy.ALWAYS))
            workload = ClosedLoopWorkload(
                clients=SCALE.redis_clients,
                total_ops=max(SCALE.redis_ops // 4, 1500),
                key_count=SCALE.redis_keys,
                value_size=params["value_size"],
            )
            rep = workload.run(system)
            system.stop()
            out[name] = rep.rps
        return {"gain": out["slimio"] / out["baseline"]}

    result = sweep({"value_size": [512, 2048, 4096]}, runner)
    # a raising runner is an error row, not an exception
    assert [r.get("error") for r in result.rows] == [None] * 3
    assert all(r["gain"] > 1.0 for r in result.rows)
