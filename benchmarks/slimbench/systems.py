"""Stand systems up from the frozen parameters, read their counters,
and drive the quiesce → crash → recover → compare phase.

Only the library's public surface is touched: ``build_baseline`` /
``build_slimio``, ``SystemConfig`` and its component configs, the
instruments ``system.attach_obs()`` registers (read by name from
``system.obs.snapshot()``), and documented stats attributes.
"""

from __future__ import annotations

from repro import (
    LoggingPolicy,
    SnapshotKind,
    SystemConfig,
    build_baseline,
    build_slimio,
)
from repro.core import verify_lba_space
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ServerConfig

__all__ = ["MB", "BUILDERS", "system_config", "build", "probe", "delta",
           "quiesce", "crash_recover", "output_checks"]

MB = 1024 * 1024
BUILDERS = {"baseline": build_baseline, "slimio": build_slimio}


def system_config(params: dict, wl: dict) -> SystemConfig:
    """The ``SystemConfig`` of one workload (``wl``) on the shared
    device/server model (``params``)."""
    dev = {**params["device"], **wl.get("device", {})}
    srv, sysp = params["server"], params["system"]
    mb = wl["device_mb"]
    trigger = wl.get("wal_trigger_mb")
    return SystemConfig(
        geometry=FlashGeometry.scaled(
            mb=mb, channels=dev["channels"],
            dies_per_channel=dev["dies_per_channel"],
            pages_per_block=dev["pages_per_block"],
            page_size=dev["page_size"]),
        # a real 256-page block erases in 2 ms; scale with block size
        nand=NandTiming(block_erase=2e-3 * dev["pages_per_block"] / 256.0),
        ftl=FtlConfig(
            op_ratio=dev["op_ratio"],
            gc_trigger_segments=dev["gc_trigger_segments"],
            gc_stop_segments=dev["gc_stop_segments"],
            gc_reserve_segments=dev["gc_reserve_segments"]),
        server=ServerConfig(
            set_cpu=srv["set_cpu_us"] * 1e-6,
            get_cpu=srv["get_cpu_us"] * 1e-6,
            wal_snapshot_trigger_bytes=(
                None if trigger is None else int(trigger * MB)),
            snapshot_chunk_entries=srv["snapshot_chunk_entries"]),
        policy=LoggingPolicy(wl["policy"]),
        snapshot_fraction=sysp["snapshot_fraction"],
        wal_flush_interval=sysp["wal_flush_interval_s"],
        wal_buffer_limit_bytes=sysp["wal_buffer_limit_mb"] * MB,
        dirty_limit_bytes=max(4 * MB, mb * MB // 4),
        fs_extent_pages=sysp["fs_extent_pages"],
        fs=sysp["fs"],
    )


def build(kind: str, config: SystemConfig, tracer_kw: dict | None = None):
    """A fresh system with its telemetry registry attached; with
    ``tracer_kw`` also a request tracer (returned as ``system.rtrace``)."""
    system = BUILDERS[kind](config=config)
    system.attach_obs()
    if tracer_kw is not None:
        from repro.obs.wiring import attach_tracer

        attach_tracer(system, **tracer_kw)
    return system


def probe(system) -> dict[str, float]:
    """Cumulative counters of a system, flat. Instruments are summed
    over their labels (all rings, both block-command classes); a
    histogram contributes ``<name>.count`` and ``<name>.sum``."""
    out: dict[str, float] = {}

    def add(name: str, v: float) -> None:
        out[name] = out.get(name, 0.0) + v

    for rendered, inst in system.obs.snapshot().items():
        name = rendered.split("{", 1)[0]
        if inst["kind"] == "counter":
            add(name, inst["value"])
        elif inst["kind"] == "histogram":
            add(name + ".count", inst["count"])
            add(name + ".sum", inst["sum"])
    env, ftl, dev = system.env, system.device.ftl, system.device.stats
    add("events_processed", env.events_processed)
    add("events_absorbed", env.events_absorbed)
    st = ftl.stats
    add("host_pages_written", st.host_pages_written)
    add("gc_pages_copied", st.gc_pages_copied)
    add("segments_erased", st.segments_erased)
    add("copyfree_erases", st.copyfree_erases)
    add("host_stall_s", st.host_stall_time)
    add("die_busy_s", ftl.nand.die_busy_time)
    add("write_cmds", dev.write_cmds)
    add("read_cmds", dev.read_cmds)
    add("deallocate_cmds", dev.deallocate_cmds)
    add("fs_cpu_s", system.main_account.time_in("fs"))
    return out


def delta(end: dict[str, float], start: dict[str, float]) -> dict[str, float]:
    return {k: v - start.get(k, 0.0) for k, v in end.items()}


def quiesce(system) -> None:
    """Flush what the logging policy still buffers and let the
    baseline's writeback drain, so the system is idle and durable."""
    env = system.env

    def q():
        yield from system.wal.flush_now()
        cache = getattr(system, "cache", None)
        while cache is not None and cache.dirty_bytes > 0:
            yield env.timeout(1e-3)
        yield env.timeout(5e-3)

    env.run(until=env.process(q(), name="slimbench-quiesce"))


def crash_recover(system, kind: SnapshotKind):
    """Quiesce, cut power (cold caches: users pay this on every
    recovery) and recover.

    Returns ``(RecoveryResult, expected keyspace)``.
    """
    env = system.env
    quiesce(system)
    expected = system.server.store.as_dict()
    system.crash()
    result = env.run(until=env.process(system.recover(kind)))
    return result, expected


def output_checks(kind: str, system, recovered: dict | None,
                  expected: dict | None) -> tuple[list[str], int]:
    """Correctness of a stopped system: ``(misses, stale keys)``.
    ``recovered`` None: there was no recovery to compare.

    A *stale* key came back with an older value written for that key
    (the 8-byte value tag matches); a missing, invented or foreign
    value is a miss outright. The caller decides whether stale keys
    are misses (see ``stale_ok`` in params.json and README.md).
    """
    from .loadgen import value_tag

    misses = []
    recovered, expected = recovered or {}, expected or {}
    bad = sum(1 for k in recovered if k not in expected)
    stale = 0
    for k, v in expected.items():
        got = recovered.get(k)
        if got == v:
            continue
        if got is not None and got[:8] == value_tag(k):
            stale += 1
        else:
            bad += 1
    if bad:
        misses.append(f"{kind}: {bad} of {len(expected)} recovered keys are "
                      "missing, invented or hold a foreign value")
    try:
        system.device.ftl.check_invariants()
    except AssertionError as exc:
        misses.append(f"{kind}: ftl.check_invariants: {exc}")
    if kind.startswith("slimio"):
        report = verify_lba_space(
            system.device, system.space.layout,
            snapshot_fraction=system.config.snapshot_fraction)
        misses.extend(f"{kind}: core.verify: {i}" for i in report.issues)
    return misses, stale
