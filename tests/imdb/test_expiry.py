"""TTL expiration tests: lazy, active, persistence propagation."""

import pytest

from repro import LoggingPolicy, SystemConfig, build_slimio
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp
from repro.imdb.expiry import ExpiryConfig, ExpiryTable
from repro.persist import SnapshotKind
from repro.sim import Environment

CFG = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                           pages_per_block=16),
    nand=NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                    channel_transfer=0.0),
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    policy=LoggingPolicy.ALWAYS,
    wal_flush_interval=0.01,
)


def system_():
    return build_slimio(config=CFG)


def run(env, gen):
    return env.run(until=env.process(gen))


# ------------------------------------------------------------------ table unit
def test_table_ttl_bookkeeping():
    env = Environment()
    table = ExpiryTable(env)
    table.set_ttl(b"k", 5.0)
    assert table.ttl(b"k") == pytest.approx(5.0)
    assert not table.is_expired(b"k")
    env._now = 6.0
    assert table.is_expired(b"k")
    assert table.ttl(b"k") == 0.0


def test_table_persist_and_note_deleted():
    env = Environment()
    table = ExpiryTable(env)
    table.set_ttl(b"k", 1.0)
    assert table.persist(b"k")
    assert not table.persist(b"k")
    assert table.ttl(b"k") is None
    table.set_ttl(b"k", 1.0)
    table.note_deleted(b"k")
    assert len(table) == 0


def test_table_due_keys_skips_stale_entries():
    env = Environment()
    table = ExpiryTable(env)
    table.set_ttl(b"a", 1.0)
    table.set_ttl(b"b", 1.0)
    table.set_ttl(b"a", 10.0)  # re-armed: heap holds a stale entry
    env._now = 2.0
    due = table.due_keys(10)
    assert due == [b"b"]
    assert table.ttl(b"a") > 0


def test_table_validation():
    env = Environment()
    table = ExpiryTable(env)
    with pytest.raises(ValueError):
        table.set_ttl(b"k", 0)
    with pytest.raises(ValueError):
        ExpiryConfig(cycle_interval=0)


def test_clientop_ttl_validation():
    with pytest.raises(ValueError):
        ClientOp("SET", b"k", b"v", ttl=0)
    with pytest.raises(ValueError):
        ClientOp("GET", b"k", ttl=1.0)


# ------------------------------------------------------------------ server
def test_lazy_expiration_on_get():
    system = system_()
    env = system.env

    def proc():
        yield from system.server.execute(ClientOp("SET", b"k", b"v", ttl=0.01))
        v1 = yield from system.server.execute(ClientOp("GET", b"k"))
        yield env.timeout(0.02)
        v2 = yield from system.server.execute(ClientOp("GET", b"k"))
        return v1, v2

    v1, v2 = run(env, proc())
    assert v1 == b"v"
    assert v2 is None
    assert b"k" not in system.server.store
    system.stop()


def test_plain_set_clears_ttl():
    system = system_()
    env = system.env

    def proc():
        yield from system.server.execute(ClientOp("SET", b"k", b"v", ttl=0.01))
        yield from system.server.execute(ClientOp("SET", b"k", b"v2"))
        yield env.timeout(0.05)
        v = yield from system.server.execute(ClientOp("GET", b"k"))
        return v

    assert run(env, proc()) == b"v2"
    system.stop()


def test_active_cycle_evicts_without_access():
    system = system_()
    env = system.env
    system.server.start_expiry_cycle(
        ExpiryConfig(cycle_interval=0.005, max_evictions_per_cycle=10))

    def proc():
        for i in range(8):
            yield from system.server.execute(
                ClientOp("SET", b"e%d" % i, b"v", ttl=0.01))
        yield from system.server.execute(ClientOp("SET", b"stay", b"v"))
        yield env.timeout(0.05)

    run(env, proc())
    assert len(system.server.store) == 1
    assert system.server.store.get(b"stay") == b"v"
    assert system.server.expiry.obs.total("expiry_active_evictions_total") == 8
    system.stop()


def test_expiration_propagates_del_to_wal():
    """Recovery must not resurrect expired keys (DEL is logged)."""
    system = system_()
    env = system.env
    system.server.start_expiry_cycle(ExpiryConfig(cycle_interval=0.005))

    def proc():
        yield from system.server.execute(ClientOp("SET", b"gone", b"v", ttl=0.01))
        yield from system.server.execute(ClientOp("SET", b"kept", b"v"))
        yield env.timeout(0.05)

    run(env, proc())
    system.crash()
    result = run(env, system.recover())
    assert b"gone" not in result.data
    assert result.data.get(b"kept") == b"v"
    system.stop()


def test_snapshot_omits_expired_keys():
    system = system_()
    env = system.env

    def proc():
        yield from system.server.execute(ClientOp("SET", b"dead", b"v", ttl=0.001))
        yield from system.server.execute(ClientOp("SET", b"live", b"v"))
        yield env.timeout(0.01)  # dead expires, but nothing touches it
        p = system.server.start_snapshot(SnapshotKind.ON_DEMAND)
        stats = yield p
        return stats

    stats = run(env, proc())
    assert stats.entries == 1
    system.stop()
