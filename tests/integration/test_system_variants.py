"""End-to-end coverage of less-default system variants."""

import pytest

from repro import LoggingPolicy, SnapshotKind, build_baseline, build_slimio
from repro.bench.experiments import EXPERIMENTS
from repro.bench.scales import TEST_SCALE
from repro.workloads import ClosedLoopWorkload


def small_workload():
    return ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                              value_size=1024, snapshot_at_fraction=0.5)


def test_baseline_recovery_roundtrips():
    system = build_baseline(
        config=TEST_SCALE.system_config(gc_pressure=False))
    rep = small_workload().run(system)
    # quiesce the periodical WAL so recovery sees the full tail
    system.env.run(until=system.env.process(system.wal.flush_now()))
    result = system.env.run(until=system.env.process(system.recover()))
    assert result.data == system.server.store.as_dict()
    system.stop()
    assert rep.ops == 400


@pytest.mark.parametrize("fs", ["ext4", "f2fs"])
def test_baseline_runs_on_both_filesystems(fs):
    system = build_baseline(
        config=TEST_SCALE.system_config(gc_pressure=False, fs=fs))
    rep = small_workload().run(system)
    system.stop()
    assert rep.snapshot_count >= 1


def test_slimio_shared_ring_variant_roundtrips():
    system = build_slimio(
        config=TEST_SCALE.system_config(gc_pressure=False,
                                        shared_ring=True))
    small_workload().run(system)
    system.env.run(until=system.env.process(system.wal.flush_now()))
    result = system.env.run(until=system.env.process(
        system.recover(SnapshotKind.ON_DEMAND)))
    assert result.data == system.server.store.as_dict()
    system.stop()


def test_slimio_no_sqpoll_variant_roundtrips():
    system = build_slimio(
        config=TEST_SCALE.system_config(gc_pressure=False, sqpoll=False))
    small_workload().run(system)
    assert system.wal_ring.obs.total("uring_enter_syscalls_total") > 0
    system.stop()


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4", "table5",
        "figure2a", "figure2b", "figure4", "figure5", "cluster",
        "tailtrace", "crashmatrix", "openloop",
    }
    for fn in EXPERIMENTS.values():
        assert callable(fn)


def test_always_log_ycsb_mix_roundtrips():

    system = build_slimio(config=TEST_SCALE.system_config(
        gc_pressure=False, policy=LoggingPolicy.ALWAYS))
    w = ClosedLoopWorkload(clients=4, total_ops=400, key_count=100,
                           value_size=512, get_ratio=0.5,
                           preload_records=100)
    w.run(system)
    system.crash()
    result = system.env.run(until=system.env.process(system.recover()))
    # every acked write is durable under Always-Log
    for k, v in result.data.items():
        assert system.server.store.get(k) == v
    system.stop()
