"""Recovery reads back what the process deflated: no inflate at all.

Each system snapshots through its own codecs, and the enabled codecs
of one zlib level share one chunk memo, so every chunk an On-Demand
snapshot wrote is still held when the same process recovers it.
``RdbReader`` must then decode every chunk from the memo:
a change that breaks the memo's keying (or its lifetime) shows up
here as inflates, not only as host time in the benchmark.
"""

import pytest

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.persist.compress import Compressor
from repro.workloads import ClosedLoopWorkload


@pytest.fixture
def inflates(monkeypatch):
    calls = []
    real = Compressor.decompress

    def counted(self, blob, raw_len=None):
        calls.append(len(blob))
        return real(self, blob, raw_len)

    monkeypatch.setattr(Compressor, "decompress", counted)
    return calls


@pytest.mark.parametrize("build", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_on_demand_recovery_inflates_nothing(build, inflates):
    system = build(config=TEST_SCALE.system_config(gc_pressure=False))
    ClosedLoopWorkload(clients=4, total_ops=300, key_count=120,
                       value_size=1024).run(system)
    env = system.env
    stats = env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert stats.ok and stats.entries == len(system.server.store.as_dict())
    env.run(until=env.process(system.wal.flush_now()))
    cache = getattr(system, "cache", None)
    while cache is not None and cache.dirty_bytes > 0:
        env.run(until=env.now + 1e-3)
    expected = system.server.store.as_dict()
    system.crash()
    result = env.run(until=env.process(system.recover(SnapshotKind.ON_DEMAND)))
    assert result.snapshot_entries == stats.entries > 0
    assert result.data == expected
    assert inflates == []
    system.stop()
