"""The flash write ledger: booked once, read one way.

Host pages, GC copies, erases, copy-free erases, GC runs and stall
seconds live in registry counters only; ``ftl.stats`` is a view of
them, ``WriteWindow`` the one reader, and the report cells (``waf``,
``gc_pages_copied``, ``gc_segments_erased``) are a window opened when
the measurement window opens. Checked on both single systems and a
4-shard cluster of each design, after a run small enough that GC
erases — and on the conventional device copies.
"""

import dataclasses

import pytest

from repro import build_baseline, build_slimio
from repro.cluster import ClusterConfig, build_cluster
from repro.flash import FlashGeometry
from repro.imdb import ClientOp, ServerConfig
from repro.workloads import ClusterWorkload, RedisBenchWorkload

from tests.cluster.conftest import SMALL_SYSTEM

PRESSURED = dataclasses.replace(
    SMALL_SYSTEM,
    geometry=FlashGeometry(channels=1, dies_per_channel=2,
                           blocks_per_die=24, pages_per_block=16),
    server=ServerConfig(wal_snapshot_trigger_bytes=128 * 1024,
                        snapshot_chunk_entries=16),
)
WARMUP = 2000

#: ``ftl.stats`` attribute -> the counter it is a view of
VIEW = {
    "host_pages_written": "ftl_host_pages_written_total",
    "gc_pages_copied": "ftl_gc_pages_copied_total",
    "segments_erased": "ftl_segments_erased_total",
    "copyfree_erases": "ftl_copyfree_erases_total",
    "gc_runs": "ftl_gc_runs_total",
    "host_stall_time": "ftl_host_stall_seconds_total",
}


def _shape():
    return RedisBenchWorkload(clients=4, total_ops=6000, key_count=300,
                              value_size=1024)


def _single(builder):
    system = builder(config=PRESSURED)
    return system, system.server, lambda: _shape().run(
        system, warmup_ops=WARMUP)


def _cluster(design, shards=4):
    cl = build_cluster(config=ClusterConfig(num_shards=shards, design=design,
                                            system=PRESSURED))
    return cl, cl.shards[0].server, lambda: ClusterWorkload(_shape()).run(
        cl, warmup_ops=WARMUP).aggregate


DEPLOYMENTS = {
    "baseline": lambda: _single(build_baseline),
    "slimio": lambda: _single(build_slimio),
    "cluster4-baseline": lambda: _cluster("baseline"),
    "cluster4-slimio": lambda: _cluster("slimio"),
}


@pytest.fixture(params=list(DEPLOYMENTS))
def measured(request):
    """(target, report, lifetime (host, copied, erased) when the
    measurement window opened) of one GC-pressured run."""
    target, server, run = DEPLOYMENTS[request.param]()
    life = target.device.ftl.lifetime
    at_open = []
    reset = server.reset_metrics

    def spy():
        at_open.append((*life.pages(), life.erased))
        reset()

    server.reset_metrics = spy
    report = run()
    target.stop()
    assert len(at_open) == 1
    return target, report, at_open[0], request.param


def test_copy_free_run_reads_zero_copies():
    """The per-stream counters are born with the stream, not at the
    first copy: a healthy SlimIO run reads 0, it does not raise."""
    system = build_slimio(config=SMALL_SYSTEM)

    def sets():
        for i in range(50):
            yield from system.execute(
                ClientOp("SET", b"key%d" % i, bytes([i]) * 200))
        yield from system.wal.flush_now()

    system.env.run(until=system.env.process(sets()))
    system.stop()
    assert system.obs.total("ftl_host_pages_written_total") > 0
    assert system.obs.total("ftl_gc_pages_copied_total") == 0.0
    assert system.obs.total("ftl_gc_pages_copied_total", stream=1) == 0.0


def test_ledger_conservation(measured):
    target, _, _, name = measured
    device, obs = target.device, target.obs
    ftl = device.ftl
    assert ftl.lifetime.erased > 0, "the run must reach GC"
    if "baseline" in name:
        assert ftl.lifetime.copied > 0, "mixed lifetimes must cost copies"
    else:
        assert ftl.lifetime.copied == 0
        assert ftl.stats.copyfree_erases == ftl.stats.segments_erased
    # the NVMe front end keeps its own, independent page count
    assert obs.total("ftl_host_pages_written_total") \
        == device.stats.pages_written
    for attr, counter in VIEW.items():
        assert getattr(ftl.stats, attr) == obs.total(counter), attr
    assert obs.gauge("ftl_waf").value == ftl.lifetime.waf() \
        == ftl.stats.waf == device.waf == target.waf
    host, copied = ftl.lifetime.pages()
    assert sum(ftl.lifetime.pages([sid])[0] for sid in ftl.stream_ids) \
        == host
    assert obs.total("nand_page_programs_total") == host + copied


def test_report_cells_are_lifetime_minus_the_values_at_open(measured):
    target, report, (host0, copied0, erased0), _ = measured
    life = target.device.ftl.lifetime
    host, copied = life.pages()
    assert host0 > 0 and erased0 > 0  # warm-up reached GC
    assert report.gc_pages_copied == copied - copied0
    assert report.gc_segments_erased == life.erased - erased0 > 0
    assert report.waf \
        == ((host - host0) + (copied - copied0)) / (host - host0)


def test_window_attributes_by_stream():
    cl, _, run = _cluster("slimio", shards=2)
    assert cl.pid_report()["mode"] == "dedicated"
    ftl = cl.device.ftl
    window = ftl.window()
    run()
    cl.stop()
    whole = window.pages()
    assert whole == ftl.lifetime.pages()  # opened at zero
    per_shard = [window.pages(s.policy.pids) for s in cl.shards]
    # with dedicated PIDs the shards partition the device's traffic
    assert tuple(map(sum, zip(*per_shard))) == whole
    assert all(host > 0 for host, _ in per_shard)
    # ids the device does not have are skipped; no traffic reads 1.0
    assert window.pages([99]) == (0, 0) and window.waf([99]) == 1.0
    assert ftl.window().pages() == (0, 0)
