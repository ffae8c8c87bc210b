"""Ablation benches: which SlimIO design decision buys what.

Beyond the paper's tables: each test isolates one design choice from
§4 and asserts the direction of its effect. These are the
"design-choice benches" DESIGN.md calls out.
"""

import dataclasses

import pytest

from repro import LoggingPolicy, SnapshotKind, build_slimio
from repro.bench.report import format_table
from repro.workloads import RedisBenchWorkload


def run_config(scale, snapshot_fraction=None, ops=None, **overrides):
    cfg = scale.system_config(gc_pressure=True,
                              policy=LoggingPolicy.ALWAYS, **overrides)
    system = build_slimio(config=cfg)
    workload = RedisBenchWorkload(
        clients=scale.redis_clients,
        total_ops=ops or max(scale.redis_ops // 2, 2000),
        key_count=scale.redis_keys,
        value_size=scale.redis_value,
        snapshot_at_fraction=snapshot_fraction,
    )
    rep = workload.run(system, warmup_ops=scale.warmup_ops // 2)
    return rep, system


def test_ablation_sqpoll(benchmark, scale):
    """SQPOLL removes submission syscalls: Always-Log latency drops."""

    def body(scale):
        out = {}
        for sqpoll in (True, False):
            rep, system = run_config(scale, sqpoll=sqpoll)
            out[sqpoll] = (
                rep, system.obs.total("uring_enter_syscalls_total",
                                      ring="wal-path"))
            system.stop()
        return out

    out = benchmark.pedantic(body, args=(scale,), iterations=1, rounds=1)
    rep_on, syscalls_on = out[True]
    rep_off, syscalls_off = out[False]
    print()
    print(format_table(
        ["SQPOLL", "RPS", "SET p999 (ms)", "ring syscalls"],
        [["on", rep_on.rps, rep_on.set_p999 * 1e3, syscalls_on],
         ["off", rep_off.rps, rep_off.set_p999 * 1e3, syscalls_off]]))
    assert syscalls_on == 0
    assert syscalls_off > 0
    # syscall savings are small per op but never negative
    assert rep_on.rps >= rep_off.rps * 0.98


def test_ablation_shared_ring(benchmark, scale):
    """Separate SQ/CQ pairs (write isolation) vs one shared ring."""

    def body(scale):
        out = {}
        for shared in (False, True):
            rep, system = run_config(scale, snapshot_fraction=0.5,
                                     shared_ring=shared)
            out[shared] = rep
            system.stop()
        return out

    out = benchmark.pedantic(body, args=(scale,), iterations=1, rounds=1)
    print()
    print(format_table(
        ["Rings", "Avg RPS", "Snap time (ms)", "SET p999 (ms)"],
        [["separate", out[False].rps,
          out[False].mean_snapshot_time * 1e3, out[False].set_p999 * 1e3],
         ["shared", out[True].rps,
          out[True].mean_snapshot_time * 1e3, out[True].set_p999 * 1e3]]))
    # a shared ring couples the snapshot's bulk writes with WAL
    # submissions: snapshots must not get faster, and the combined
    # run must not improve
    assert out[False].mean_snapshot_time <= out[True].mean_snapshot_time * 1.1
    assert out[False].rps >= out[True].rps * 0.95


def test_ablation_fdp_waf(benchmark, scale):
    """FDP lifetime separation is what keeps WAF at exactly 1.0."""

    def body(scale):
        out = {}
        for fdp in (True, False):
            rep, system = run_config(scale, snapshot_fraction=0.3, fdp=fdp)
            out[fdp] = (rep, system.device.ftl.stats.gc_pages_copied)
            system.stop()
        return out

    out = benchmark.pedantic(body, args=(scale,), iterations=1, rounds=1)
    print()
    print(format_table(
        ["Device", "WAF", "GC pages copied", "Avg RPS"],
        [["FDP", out[True][0].waf, out[True][1], out[True][0].rps],
         ["conventional", out[False][0].waf, out[False][1],
          out[False][0].rps]]))
    assert out[True][0].waf == pytest.approx(1.0)
    assert out[True][1] == 0
    assert out[False][0].waf >= out[True][0].waf


def test_ablation_recovery_readahead(benchmark, scale):
    """Recovery read-ahead window sweep (Table 5's mechanism)."""

    def body(scale):
        from repro.bench.experiments import _fill_store, _quiesce

        results = {}
        for window in (1, 8, 64):
            cfg = dataclasses.replace(
                scale.system_config(gc_pressure=False, trigger=False),
                recovery_readahead_pages=window,
            )
            system = build_slimio(config=cfg)
            _fill_store(system, scale.redis_keys, scale.redis_value)
            _quiesce(system)
            proc = system.server.start_snapshot(SnapshotKind.ON_DEMAND)
            system.env.run(until=proc)
            system.crash()
            rec = system.env.run(until=system.env.process(
                system.recover(SnapshotKind.ON_DEMAND)))
            system.stop()
            assert len(rec.data) == scale.redis_keys
            results[window] = rec
        return results

    results = benchmark.pedantic(body, args=(scale,), iterations=1, rounds=1)
    print()
    print(format_table(
        ["Read-ahead (pages)", "Recovery time (ms)", "Throughput (MB/s)"],
        [[w, r.duration * 1e3, r.throughput / 1e6]
         for w, r in sorted(results.items())]))
    # deeper windows overlap more device time with decode CPU
    assert results[64].duration < results[1].duration
