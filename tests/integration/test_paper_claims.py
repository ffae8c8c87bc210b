"""Fast integration tests of the paper's headline claims.

These are the benchmark shape checks distilled into the regular test
suite at a tiny scale, so `pytest tests/` alone guards the
reproduction's core results.
"""

import pytest

from repro import LoggingPolicy, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE


@pytest.fixture(scope="module")
def overall_runs():
    """One GC-pressured redis-bench run per (policy, system)."""
    out = {}
    for policy in (LoggingPolicy.PERIODICAL, LoggingPolicy.ALWAYS):
        for name, builder in (("baseline", build_baseline),
                              ("slimio", build_slimio)):
            system = builder(
                config=TEST_SCALE.system_config(gc_pressure=True,
                                                policy=policy))
            workload = TEST_SCALE.redis_bench(snapshot_at_fraction=0.5)
            rep = workload.run(system, warmup_ops=TEST_SCALE.warmup_ops)
            system.stop()
            out[(policy, name)] = rep
    return out


@pytest.mark.parametrize("policy", [LoggingPolicy.PERIODICAL,
                                    LoggingPolicy.ALWAYS])
def test_slimio_improves_non_snapshot_throughput(overall_runs, policy):
    """Paper abstract: up to 30% higher query throughput outside
    snapshots."""
    base = overall_runs[(policy, "baseline")]
    slim = overall_runs[(policy, "slimio")]
    assert slim.rps_wal_only > base.rps_wal_only


@pytest.mark.parametrize("policy", [LoggingPolicy.PERIODICAL,
                                    LoggingPolicy.ALWAYS])
def test_slimio_shortens_snapshots(overall_runs, policy):
    """Paper abstract: snapshot time reduced up to 25%."""
    base = overall_runs[(policy, "baseline")]
    slim = overall_runs[(policy, "slimio")]
    assert slim.mean_snapshot_time < base.mean_snapshot_time


@pytest.mark.parametrize("policy", [LoggingPolicy.PERIODICAL,
                                    LoggingPolicy.ALWAYS])
def test_slimio_cuts_tail_latency(overall_runs, policy):
    """Paper abstract: 99.9%-ile latency lowered (up to 50%)."""
    base = overall_runs[(policy, "baseline")]
    slim = overall_runs[(policy, "slimio")]
    assert slim.set_p999 < base.set_p999


def test_slimio_waf_is_exactly_one(overall_runs):
    """Paper abstract: WAF of 1.00 — no redundant internal writes."""
    for policy in (LoggingPolicy.PERIODICAL, LoggingPolicy.ALWAYS):
        assert overall_runs[(policy, "slimio")].waf == pytest.approx(1.0)


def test_baseline_pays_gc_copies(overall_runs):
    """The conventional device moves valid pages during GC."""
    assert overall_runs[(LoggingPolicy.PERIODICAL, "baseline")].waf > 1.0


def test_snapshot_phase_parity(overall_runs):
    """§5.2: during snapshots the two designs are near parity — the
    fork/CoW cost dominates and passthru cannot remove it."""
    base = overall_runs[(LoggingPolicy.PERIODICAL, "baseline")]
    slim = overall_runs[(LoggingPolicy.PERIODICAL, "slimio")]
    assert slim.rps_wal_snapshot > 0.6 * base.rps_wal_snapshot


def test_memory_footprints_comparable(overall_runs):
    """§5.2: SlimIO's extra threads don't change the footprint."""
    base = overall_runs[(LoggingPolicy.PERIODICAL, "baseline")]
    slim = overall_runs[(LoggingPolicy.PERIODICAL, "slimio")]
    assert abs(slim.peak_memory - base.peak_memory) < 0.25 * base.peak_memory


def test_recovery_faster_with_readahead():
    """Table 5's claim, as a plain test."""
    from repro.bench.experiments import _cell, _recovered

    times = {}
    for name, builder in (("baseline", build_baseline),
                          ("slimio", build_slimio)):
        _, rec = _cell(builder, TEST_SCALE.system_config(
            gc_pressure=False, trigger=False), _recovered, loaded=TEST_SCALE)
        assert rec.snapshot_entries == TEST_SCALE.redis_keys
        times[name] = rec.duration
    assert times["slimio"] < times["baseline"]
