"""End-to-end system tests: build, run, snapshot, crash, recover."""

from dataclasses import fields, is_dataclass, replace

import pytest

from repro import (
    LoggingPolicy,
    SnapshotKind,
    SystemConfig,
    build_baseline,
    build_slimio,
)
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp

FAST = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                  channel_transfer=0.5e-6)
SMALL = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=64,
                           pages_per_block=16),
    nand=FAST,
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    wal_flush_interval=0.01,
    dirty_limit_bytes=128 * 4096,
    fs_extent_pages=16,
)


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def fill(system, n, value_size=200, prefix=b"key"):
    def proc():
        for i in range(n):
            yield from system.server.execute(
                ClientOp("SET", prefix + b"%d" % i, bytes([i % 256]) * value_size)
            )

    drive(system.env, proc())


@pytest.mark.parametrize("builder", [build_baseline, build_slimio])
def test_build_run_snapshot_recover(builder):
    system = builder(config=SMALL)
    fill(system, 50)
    stats = system.env.run(until=system.server.start_snapshot(
        SnapshotKind.ON_DEMAND))
    assert stats.ok
    result = drive(system.env, system.recover(SnapshotKind.ON_DEMAND))
    assert result.data == system.server.store.as_dict()
    system.stop()


@pytest.mark.parametrize("builder", [build_baseline, build_slimio])
def test_recovery_includes_wal_written_after_snapshot(builder):
    system = builder(config=SMALL)
    fill(system, 20)
    system.env.run(until=system.server.start_snapshot(SnapshotKind.WAL_TRIGGERED))
    fill(system, 10, prefix=b"late")

    def settle():  # let the periodical flusher drain
        yield system.env.timeout(0.1)

    drive(system.env, settle())
    result = drive(system.env, system.recover(SnapshotKind.WAL_TRIGGERED))
    assert result.data == system.server.store.as_dict()
    assert result.wal_records_applied >= 10
    system.stop()


@pytest.mark.parametrize("builder", [build_baseline, build_slimio])
def test_always_log_survives_crash(builder):
    import dataclasses

    cfg = dataclasses.replace(SMALL, policy=LoggingPolicy.ALWAYS)
    system = builder(config=cfg)
    fill(system, 15)
    expected = system.server.store.as_dict()
    system.crash()
    result = drive(system.env, system.recover())
    assert result.data == expected
    system.stop()


@pytest.mark.parametrize("builder", [build_baseline, build_slimio])
def test_periodical_log_crash_loses_only_unflushed_tail(builder):
    system = builder(config=SMALL)
    fill(system, 15)
    system.crash()  # before any flush deadline
    result = drive(system.env, system.recover())
    # at-most semantics: recovered state is a prefix of what was acked
    full = system.server.store.as_dict()
    for k, v in result.data.items():
        assert full[k] == v
    system.stop()


def test_slimio_recovery_on_blank_device():
    system = build_slimio(config=SMALL)
    result = drive(system.env, system.recover())
    assert result.data == {}
    system.stop()


def test_baseline_recovery_on_blank_device():
    system = build_baseline(config=SMALL)
    result = drive(system.env, system.recover())
    assert result.data == {}
    system.stop()


def test_slimio_crash_mid_snapshot_keeps_previous():
    system = build_slimio(config=SMALL)
    fill(system, 30)
    v1 = system.server.store.as_dict()
    system.env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    # second snapshot: crash while the child is writing
    fill(system, 5, prefix=b"extra")
    system.server.start_snapshot(SnapshotKind.ON_DEMAND)

    def crash_mid_flight():
        yield system.env.timeout(1e-4)  # somewhere inside the child's run

    drive(system.env, crash_mid_flight())
    # power loss now: rebuild from a cold engine sharing the same device
    result = drive(system.env, system.recover(SnapshotKind.ON_DEMAND))
    # the recovered snapshot is the FIRST one (second never promoted)
    for k, v in v1.items():
        assert result.data.get(k) == v
    system.stop()


def test_wal_snapshot_trigger_end_to_end_slimio():
    import dataclasses

    from repro.imdb import ServerConfig

    cfg = dataclasses.replace(
        SMALL,
        policy=LoggingPolicy.ALWAYS,
        server=ServerConfig(wal_snapshot_trigger_bytes=30_000,
                            snapshot_chunk_entries=16),
    )
    system = build_slimio(config=cfg)
    fill(system, 80, value_size=500)

    def settle():
        while system.server.snapshot_in_progress:
            yield system.env.timeout(1e-3)

    drive(system.env, settle())
    kinds = [s.kind for s in system.metrics.snapshots]
    assert SnapshotKind.WAL_TRIGGERED in kinds
    result = drive(system.env, system.recover())
    assert result.data == system.server.store.as_dict()
    system.stop()


def test_slimio_waf_stays_one_under_churn():
    import dataclasses

    from repro.imdb import ServerConfig

    cfg = dataclasses.replace(
        SMALL,
        geometry=FlashGeometry(channels=1, dies_per_channel=2,
                               blocks_per_die=16, pages_per_block=16),
        policy=LoggingPolicy.ALWAYS,
        server=ServerConfig(wal_snapshot_trigger_bytes=40_000,
                            snapshot_chunk_entries=16),
    )
    system = build_slimio(config=cfg)
    # enough WAL churn to wrap the device and trigger GC
    for round_ in range(12):
        fill(system, 40, value_size=2000)

        def settle():
            while system.server.snapshot_in_progress:
                yield system.env.timeout(1e-3)

        drive(system.env, settle())
    assert system.device.ftl.stats.segments_erased > 0, "GC must have run"
    assert system.waf == pytest.approx(1.0)
    system.stop()


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(fs="zfs")


def _float_fields(obj):
    """(dataclass, field name) for every float field of a config,
    nested configs included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _float_fields(value)
        elif isinstance(value, float):
            yield type(obj), f.name


FLOAT_FIELDS = list(_float_fields(SystemConfig()))


def test_every_float_field_is_listed():
    assert [f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS] == [
        "NandTiming.page_read", "NandTiming.page_program",
        "NandTiming.block_erase", "NandTiming.channel_transfer",
        "FtlConfig.op_ratio", "ServerConfig.set_cpu",
        "ServerConfig.get_cpu", "SystemConfig.wal_flush_interval",
        "SystemConfig.snapshot_fraction",
    ]


@pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "neg"])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_a_bad_float_field_is_refused(cls, name, bad):
    """NaN or -1 in any float field fails when the config is built,
    naming the field, not when (or after) a system is built from it:
    slimbench builds its configs from ``params.json``."""
    with pytest.raises(ValueError, match=name):
        cls(**{name: bad})


def test_builder_overrides():
    system = build_slimio(config=SMALL, fdp=False, sqpoll=False)
    assert system.config.fdp is False
    assert system.wal_ring.sqpoll is False
    system.stop()


@pytest.mark.parametrize("interval", [float("nan"), 0.0, -1.0])
def test_non_positive_wal_flush_interval_is_rejected(interval):
    # a NaN interval (e.g. from a config file) once built a system whose
    # flusher scheduled its ticks at NaN instants
    with pytest.raises(ValueError, match="flush_interval"):
        build_slimio(config=replace(SMALL, wal_flush_interval=interval))
