"""A WAL flush that outgrows the region while the covering snapshot is
still being written waits for that snapshot instead of failing.

The region holds the current generation and the previous one; the
previous one may only go once the WAL-Snapshot covering it is durable.
These tests fill the region that way directly, then check that the
flush parks, that the snapshot's durability releases it in both logging
policies, and that every record stays readable.
"""

import pytest

from repro.core.paths import WalPath
from repro.persist import AofCodec, AofRecord, LoggingPolicy, OP_SET, WalManager

from tests.core.test_paths import drive, world  # noqa: F401  (fixture)

from tests.persist.records import read_records


def _records(prefix: bytes, nbytes: int) -> list[AofRecord]:
    value = b"v" * 1000
    one = len(AofCodec.encode(AofRecord(op=OP_SET, key=prefix + b"00000",
                                        value=value)))
    return [AofRecord(op=OP_SET, key=prefix + b"%05d" % i, value=value)
            for i in range(nbytes // one)]


def _fill_previous_generation(env, wal, space, acct, dev):
    """Write a previous generation of ~45 % of the region, then rotate;
    returns (previous-gen records, bytes that overflow what is left)."""
    region = space.wal.wal_pages * dev.lba_size
    old = _records(b"old", int(region * 0.45))

    def proc():
        for r in old:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)
        yield from wal.begin_generation(acct)

    drive(env, proc())
    assert space.wal.prev_start is not None
    return old, int(region * 0.7)


def test_flush_waits_for_the_covering_snapshot_then_retires(world):
    env, dev, ring, space, meta, acct = world
    wal = WalPath(env, ring, space, meta, acct)
    _old, overflow = _fill_previous_generation(env, wal, space, acct, dev)
    new = _records(b"new", overflow)

    def flush_new():
        for r in new:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)

    head = space.wal.head
    proc = env.process(flush_new())
    env.run(until=env.now + 0.1)
    assert proc.is_alive  # parked: the previous generation is still live
    assert space.wal.head == head
    assert space.wal.prev_start is not None

    wal.previous_covered()  # the covering snapshot became durable
    env.run(until=proc)
    assert space.wal.prev_start is None  # retired by the waiting flush
    assert space.wal.live_pages() <= space.wal.wal_pages

    assert drive(env, read_records(wal, acct)) == new


def test_flush_with_no_previous_generation_to_wait_for_still_fails(world):
    env, dev, ring, space, meta, acct = world
    wal = WalPath(env, ring, space, meta, acct)
    region = space.wal.wal_pages * dev.lba_size
    huge = _records(b"big", int(region * 1.1))

    def proc():
        for r in huge:
            yield from wal.append(AofCodec.encode(r), acct)
        yield from wal.flush(acct)

    with pytest.raises(OSError, match="WAL region full"):
        drive(env, proc())


@pytest.mark.parametrize("policy", list(LoggingPolicy))
def test_manager_retirement_releases_a_parked_flush(world, policy):
    """Always-Log drains hold the WAL manager's sink lock while they
    flush, and ``retire_previous`` queues for that lock: the covering
    notice it gives first is what lets the parked flush finish."""
    env, dev, ring, space, meta, acct = world
    wal = WalPath(env, ring, space, meta, acct)
    mgr = WalManager(env, wal, acct, policy=policy)
    _old, overflow = _fill_previous_generation(env, wal, space, acct, dev)
    new = _records(b"new", overflow)

    def writer():
        seq = 0
        for r in new:
            seq = mgr.stage(r)
        if policy is LoggingPolicy.ALWAYS:
            yield from mgr.ensure_durable(seq)
        else:
            yield from mgr.flush_now()

    proc = env.process(writer())
    env.run(until=env.now + 0.1)
    assert proc.is_alive
    retire = env.process(mgr.retire_previous())
    env.run(until=proc)
    env.run(until=retire)
    mgr.close()
    assert space.wal.prev_start is None
    assert drive(env, read_records(wal, acct)) == new


def test_pinned_eight_shard_cluster_at_bench_volume_completes():
    """The cluster experiment's 8-shard SlimIO run at bench volume
    (about 2 s): device GC slows the shards' WAL-Snapshots until a WAL
    generation outgrows what its previous generation leaves of the
    region. Before flushes waited for the covering snapshot, this run
    raised "WAL region full" and ``bench cluster --scale bench`` wrote
    no report."""
    from repro.bench.experiments import _pinned_workload, pinned_cluster_config
    from repro.bench.scales import get_scale
    from repro.cluster import build_cluster

    scale = get_scale("bench")
    cluster = build_cluster(config=pinned_cluster_config(scale, 8, "slimio"))
    rep = _pinned_workload(scale).run(cluster, warmup_ops=scale.warmup_ops)
    cluster.stop()
    assert rep.aggregate.ops > 0
    assert rep.aggregate.snapshot_count > 0
