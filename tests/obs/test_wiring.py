"""System-level wiring tests: one registry across every layer."""

import pytest

from repro import SnapshotKind, SystemConfig, build_baseline, build_slimio
from repro.workloads import RedisBenchWorkload


def _workload():
    return RedisBenchWorkload(
        clients=4, total_ops=800, key_count=128, value_size=2048,
        snapshot_at_fraction=0.5,
    )


def _drive(system):
    rep = _workload().run(system)
    proc = system.server.start_snapshot(SnapshotKind.ON_DEMAND)
    system.env.run(until=proc)
    rec = system.env.run(
        until=system.env.process(system.recover(SnapshotKind.ON_DEMAND))
    )
    system.stop()
    return rep, rec


@pytest.mark.parametrize("builder", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_attach_obs_creates_and_returns_registry(builder):
    system = builder()
    reg = system.attach_obs()
    assert system.obs is reg
    assert reg.name == system.server.name


@pytest.mark.parametrize("builder", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_full_run_populates_all_layers(builder):
    system = builder()
    reg = system.obs
    _drive(system)

    snap = reg.snapshot()
    names = {inst.name for inst in reg.instruments()}
    # every layer shows up
    assert "server_commands_total" in names          # imdb/server
    assert "wal_flush_bytes" in names                # persist/wal
    assert "ftl_waf" in names                        # flash/ftl
    assert "recovery_wal_records_total" in names     # persist/recovery
    if builder is build_baseline:
        assert "pagecache_dirty_bytes" in names      # kernel/pagecache
        assert "fs_journal_commits_total" in names   # kernel/fs
        assert "block_cmds_total" in names           # kernel/blocklayer
    else:
        assert "uring_submitted_total" in names      # kernel/iouring
        assert "walpath_flush_pages_total" in names  # core/paths
        assert "snapshot_path_pages_total" in names
        assert "readahead_hits_total" in names       # core/readahead
    assert snap  # renders without error

    span_names = {s.name for s in reg.spans}
    assert {"wal_flush", "snapshot", "snapshot_write", "snapshot_load",
            "recovery_replay"} <= span_names


#: every (name, kind) benchmarks/slimbench/ledger.py::layer_counters
#: reads out of ``system.obs.snapshot()``, plus the flash write ledger
#: the reports read. slimbench sums by base name
#: and reads with ``.get(name, 0.0)``, so a rename here does not fail
#: there — it silently reads 0. Both systems own the first group; the
#: kernel path exists only on the baseline, the rings only on SlimIO.
_LEDGER_BOTH = {
    "wal_flush_bytes": "histogram",
    "wal_group_commits_total": "counter",
    "wal_backpressure_waits_total": "counter",
    "server_commands_total": "counter",
    "server_wal_buffer_stalls_total": "counter",
    "ftl_waf": "gauge",
    # the flash write ledger: every WAF / GC-copy / erase report cell
    # is a WriteWindow over these, and ftl.stats a view of them
    "ftl_host_pages_written_total": "counter",
    "ftl_gc_pages_copied_total": "counter",
    "ftl_segments_erased_total": "counter",
    "ftl_copyfree_erases_total": "counter",
    "ftl_gc_runs_total": "counter",
    "ftl_host_stall_seconds_total": "counter",
}
_LEDGER_OWNED = {
    build_baseline: {
        "fs_journal_commits_total": "counter",
        "fs_journal_pages_total": "counter",
        "pagecache_writeback_pages_total": "counter",
        "pagecache_throttle_wait_seconds": "histogram",
        "fs_commit_lock_wait_seconds": "histogram",
        "block_cmds_total": "counter",
    },
    build_slimio: {
        "uring_submitted_total": "counter",
        "uring_completion_seconds": "histogram",
        "uring_retries_total": "counter",
        "walpath_flush_pages_total": "counter",
        "walpath_meta_writes_total": "counter",
        "snapshot_path_pages_total": "counter",
        "readahead_hits_total": "counter",
        "readahead_waits_total": "counter",
        "readahead_random_misses_total": "counter",
    },
}


@pytest.mark.parametrize("builder", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_ledger_instrument_names_are_a_contract(builder):
    system = builder()
    _drive(system)
    kinds = {}
    for rendered, inst in system.obs.snapshot().items():
        kinds.setdefault(rendered.split("{", 1)[0], set()).add(inst["kind"])
    for name, kind in {**_LEDGER_BOTH, **_LEDGER_OWNED[builder]}.items():
        assert kinds.get(name) == {kind}, (
            f"{name}: slimbench's ledger reads it as a {kind}; "
            f"the registry has {kinds.get(name)}"
        )


@pytest.mark.parametrize("builder", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_waf_gauge_matches_ftl_stats(builder):
    system = builder()
    reg = system.obs
    _drive(system)
    assert reg.gauge("ftl_waf").value == system.device.ftl.stats.waf


@pytest.mark.parametrize("builder", [build_baseline, build_slimio],
                         ids=["baseline", "slimio"])
def test_serialized_tracks_do_not_overlap(builder):
    # a 0.5 ms flusher interval, so the run holds flush_now's fsyncs
    system = builder(config=SystemConfig(wal_flush_interval=5e-4))
    reg = system.obs
    _drive(system)
    # flush_now's fsync runs outside the sink lock (labelled unlocked)
    # and may overlap a locked drain; the locked ones never overlap
    by_track = {}
    for s in reg.spans:
        key = (s.layer, s.name, s.labels.get("unlocked", False))
        by_track.setdefault(key, []).append(s)
    assert ("wal", "wal_flush", False) in by_track
    assert ("wal", "wal_fsync", True) in by_track
    for (layer, name, unlocked), spans in by_track.items():
        spans.sort(key=lambda s: s.t0)
        for a, b in zip(spans, spans[1:]):
            assert a.t1 <= b.t0 + 1e-12, \
                f"same-name spans overlap on {layer}/{name}"


def test_snapshot_write_nests_inside_snapshot():
    system = build_slimio()
    reg = system.obs
    _drive(system)
    outers = reg.spans_named("snapshot")
    for inner in reg.spans_named("snapshot_write"):
        assert any(o.t0 <= inner.t0 and inner.t1 <= o.t1 for o in outers)


def test_shared_ring_ablation_attaches_once():
    system = build_slimio(shared_ring=True)
    _drive(system)
    rings = {i.labels.get("ring") for i in system.obs.instruments()
             if i.name == "uring_submitted_total"}
    assert rings == {"wal-path"}  # snapshot traffic shares the WAL ring
