"""Recovery and fsck copy each recovered byte once.

A system holding a WAL of W bytes and a snapshot of S bytes is cut
and recovered under tracemalloc. The *transient* is what recovery
allocates and frees again: the traced peak minus what is still
traced when it returns (the recovered keyspace, and on the baseline
the page cache the reads filled). Recovery must keep it within
W + S plus ``SLACK`` of their sum: the snapshot blob lives only until
it is decoded, the WAL is assembled once, and a replayed value the
snapshot already holds byte for byte is not copied again. The
offline ``verify_lba_space`` of a SlimIO device is held to the same
bound.

Copying a page run into an intermediate and then again into the
stream, or keeping the snapshot blob through the replay, puts the
transient well past W + S: for this load, 2.5 x on the baseline and
1.9 x on SlimIO, and 1.7 x for ``verify_lba_space``, against 0.9 x,
1.2 x and 0.9 x when each byte is copied once.
"""

import tracemalloc

import pytest

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.core import verify_lba_space
from repro.workloads import ClosedLoopWorkload

#: headroom over W + S: the WAL stream is one ``bytearray`` grown by
#: appends (CPython over-allocates it by up to 1/8), SlimIO's read-ahead
#: buffer keeps the pages of its last read (up to one 1 MiB chunk, all
#: of this snapshot), and recovery copies keys and builds a dict
SLACK = 0.25


def _transient(fn):
    """``(fn(), bytes fn allocated and freed again before returning)``."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - retained


def _cut(build):
    """A system with one WAL generation and an On-Demand snapshot of
    the same keyspace, power cut."""
    system = build(config=TEST_SCALE.system_config(gc_pressure=False))
    ClosedLoopWorkload(clients=4, total_ops=600, key_count=300,
                       value_size=4096).run(system)
    env = system.env
    stats = env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert stats.ok
    env.run(until=env.process(system.wal.flush_now()))
    cache = getattr(system, "cache", None)
    while cache is not None and cache.dirty_bytes > 0:
        env.run(until=env.now + 1e-3)
    expected = system.server.store.as_dict()
    wal_bytes = system.wal.sink.size
    system.crash()
    return system, expected, wal_bytes


@pytest.mark.parametrize("build", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_recovery_transient_is_at_most_wal_plus_snapshot(build):
    system, expected, wal_bytes = _cut(build)
    env = system.env
    result, transient = _transient(lambda: env.run(
        until=env.process(system.recover(SnapshotKind.ON_DEMAND))))
    assert result.data == expected
    assert result.wal_records_applied == 600
    budget = wal_bytes + result.snapshot_bytes
    assert wal_bytes > result.snapshot_bytes > 0
    assert transient <= budget * (1 + SLACK), (transient, budget)
    if build is build_slimio:
        report, transient = _transient(lambda: verify_lba_space(
            system.device, system.space.layout,
            snapshot_fraction=system.config.snapshot_fraction))
        assert report.ok and report.wal_records == 600
        assert transient <= budget * (1 + SLACK), (transient, budget)
    system.stop()
