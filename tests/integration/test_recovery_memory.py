"""Recovery and fsck memory does not grow with the log.

A system holding a WAL and an On-Demand snapshot is cut and recovered
under tracemalloc. The *transient* is what recovery allocates and frees
again: the traced peak minus what is still traced when it returns (the
recovered keyspace, and on the baseline the page cache the reads
filled). Both files stream through the incremental readers, so the
transient is held to one fixed ``BUDGET``, at today's load and at four
times the operations: what the read-ahead buffer keeps of its last
read, one ``READ_CHUNK_BYTES`` snapshot piece, one WAL read window and
slack for the reader's unfinished record or chunk, key copies and dict
growth. The offline ``verify_lba_space`` of a SlimIO device is held to
the same budget.

The one part held whole is a live previous WAL generation (it replays
all-or-nothing), so a cut with one is held to the budget plus that
generation's bytes.

Assembling either file as one buffer puts the transient at about
W + S, where W is the WAL bytes and S the snapshot bytes: 2.5 MB at
today's load and 4.7 MB at four times the operations, against
0.6–0.7 MB for both when the readers stream.
"""

import tracemalloc

import pytest

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.core import verify_lba_space
from repro.persist.recovery import READ_CHUNK_BYTES
from repro.workloads import ClosedLoopWorkload

PAGE = 4096
#: the read-ahead buffer's pages of its last read: page objects the
#: device already holds, so only their index costs anything
READAHEAD_BYTES = 64 * PAGE
#: one WAL read run (``WalPath._read_range``) or page-cache read window
READ_WINDOW_BYTES = 64 * PAGE
#: the unfinished record or chunk, copied keys, dict and list growth
SLACK_BYTES = 256 * 1024
BUDGET = READAHEAD_BYTES + READ_CHUNK_BYTES + READ_WINDOW_BYTES + SLACK_BYTES

OPS = 600


def _transient(fn):
    """``(fn(), bytes fn allocated and freed again before returning)``."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - retained


def _load(system, ops):
    ClosedLoopWorkload(clients=4, total_ops=ops, key_count=300,
                       value_size=4096).run(system)


def _count_generations(wal):
    """Count the records ``wal`` stages into each generation: the
    returned list, oldest generation first, gains an entry at each
    switch."""
    counts = [0]
    stage, rotate_begin = wal.stage, wal.rotate_begin

    def counted_stage(record):
        counts[-1] += 1
        return stage(record)

    def counted_rotate_begin():
        counts.append(0)
        rotate_begin()

    wal.stage, wal.rotate_begin = counted_stage, counted_rotate_begin
    return counts


def _cut(build, ops=OPS, previous_generation=False):
    """A system with an On-Demand snapshot of its keyspace, power cut;
    with ``previous_generation`` the WAL has rotated once more (a
    WAL-Snapshot forked and never finished) and both generations are
    live. Also returns how many records the live generations hold."""
    system = build(config=TEST_SCALE.system_config(gc_pressure=False))
    counts = _count_generations(system.wal)
    _load(system, ops)
    env = system.env
    stats = env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert stats.ok
    prev_bytes = 0
    if previous_generation:
        env.run(until=env.process(system.wal.flush_now()))
        prev_bytes = system.wal.sink.size
        system.wal.rotate_begin()
        _load(system, ops // 2)
    env.run(until=env.process(system.wal.flush_now()))
    sink = system.wal.sink
    prev_live = bool(sink._prev_files if hasattr(sink, "_prev_files")
                     else sink.space.wal.prev_start is not None)
    assert prev_live == previous_generation
    live_records = sum(counts[-2:] if prev_live else counts[-1:])
    cache = getattr(system, "cache", None)
    while cache is not None and cache.dirty_bytes > 0:
        env.run(until=env.now + 1e-3)
    expected = system.server.store.as_dict()
    wal_bytes = system.wal.sink.size
    system.crash()
    return system, expected, live_records, wal_bytes, prev_bytes


def _recover_within(system, expected, live_records, budget):
    """Recover ``system`` and, on a SlimIO device, fsck it; every
    record of the live generations must be replayed and counted."""
    env = system.env
    result, transient = _transient(lambda: env.run(
        until=env.process(system.recover(SnapshotKind.ON_DEMAND))))
    assert result.data == expected
    assert result.wal_tail == "clean"
    assert result.wal_records_applied == live_records
    assert transient <= budget, (transient, budget)
    if hasattr(system, "space"):  # a SlimIO device: fsck it too
        report, transient = _transient(lambda: verify_lba_space(
            system.device, system.space.layout,
            snapshot_fraction=system.config.snapshot_fraction))
        assert report.ok
        assert report.wal_records == live_records
        assert transient <= budget, (transient, budget)
    return result


@pytest.mark.parametrize("ops", [OPS, 4 * OPS], ids=["1x", "4x"])
@pytest.mark.parametrize("build", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_transient_within_a_fixed_budget(build, ops):
    system, expected, live_records, wal_bytes, _ = _cut(build, ops)
    if ops == OPS:
        assert live_records == ops  # one generation, every op a record
    result = _recover_within(system, expected, live_records, BUDGET)
    # the budget binds: one whole-file buffer would not fit in it
    assert wal_bytes + result.snapshot_bytes > BUDGET
    system.stop()


@pytest.mark.parametrize("build", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_previous_generation_is_held_to_its_own_size(build):
    system, expected, live_records, wal_bytes, prev_bytes = _cut(
        build, previous_generation=True)
    assert prev_bytes > 0 and wal_bytes > 0
    assert live_records == OPS + OPS // 2  # both generations replay
    _recover_within(system, expected, live_records, BUDGET + prev_bytes)
    system.stop()
