"""Process-global state holds only live state.

Benchmarks and experiments build system after system in one process,
so a module-level memo that keeps a reference to a finished system (or
grows with every run) shows up as peak RSS that measures leftovers. A
baseline system and a SlimIO system behind a ``NetFrontend`` are run,
snapshotted, stopped and dropped in turn; after one full collection
nothing of either may survive, the shared chunk memos must be gone
with their codecs, and the value cache must be within its bound.
"""

import gc
import weakref

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.net import MIXES, NetConfig, NetFrontend, OpStream, PoissonArrivals
from repro.net import run_open_loop
from repro.persist import compress
from repro.workloads import ClosedLoopWorkload, keys


def _baseline_run() -> weakref.ref:
    system = build_baseline(config=TEST_SCALE.system_config(gc_pressure=False))
    ClosedLoopWorkload(clients=4, total_ops=200, key_count=80,
                       value_size=1024).run(system)
    stats = system.env.run(
        until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert stats.ok and stats.entries > 0
    assert len(compress._MEMOS) == 1
    system.stop()
    return weakref.ref(system.device)


def _slimio_net_run() -> tuple[weakref.ref, weakref.ref]:
    system = build_slimio(config=TEST_SCALE.system_config(gc_pressure=False))
    env = system.env
    fe = NetFrontend(env, system.server, NetConfig(pipeline_depth=4))
    times = PoissonArrivals(5_000, seed=3).times(0.02, t0=env.now)
    stream = OpStream(MIXES["ycsb_a"], len(times), 200, value_size=256,
                      seed=5)
    run_open_loop(env, fe, stream, times, clients=4, horizon=0.1,
                  servers=[system.server], snapshot_at=0.01)
    assert fe.completed > 0
    assert any(s.ok for s in system.server.metrics.snapshots)
    system.stop()
    return weakref.ref(system.device), weakref.ref(fe)


def test_finished_systems_leave_nothing_behind():
    baseline_dev = _baseline_run()
    slimio_dev, frontend = _slimio_net_run()
    gc.collect()
    assert baseline_dev() is None
    assert slimio_dev() is None
    assert frontend() is None
    assert len(compress._MEMOS) == 0
    cache = keys._value_cache
    assert cache.nbytes <= keys.VALUE_CACHE_BYTES
    assert cache.nbytes == sum(len(v) for v in cache.values())
