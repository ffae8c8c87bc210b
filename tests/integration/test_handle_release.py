"""A stopped system's pages go when its handle does.

No component of a system refers back to its handle, so a stopped
handle is freed by reference counting as soon as its last reference
goes, and it then releases the page maps it built: its device's page
map (only if it built the device) and the baseline's page cache. Every
test here runs with the cyclic collector off, so whatever is freed is
freed by refcount. A released map is empty, and I/O against it raises
``ReleasedError``; it never reads as zero pages.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro import LoggingPolicy, SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.cluster import ClusterConfig, build_cluster
from repro.core import verify_lba_space
from repro.core.engine import BaselineSystem, SlimIOSystem
from repro.faults import FaultyDevice
from repro.kernel import CpuAccount
from repro.nvme import NvmeDevice, ReleasedError
from repro.sim import Environment
from repro.workloads import ClosedLoopWorkload
from repro.workloads.cluster import ClusterWorkload

CFG = TEST_SCALE.system_config(gc_pressure=False)


@pytest.fixture(autouse=True)
def no_collector():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _load(system, ops: int = 200):
    """Load, snapshot and flush: the device and any cache hold pages."""
    ClosedLoopWorkload(clients=4, total_ops=ops, key_count=80,
                       value_size=1024).run(system)
    env = system.env
    stats = env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    assert stats.ok
    env.run(until=env.process(system.wal.flush_now()))
    return system


def _device_of(system) -> NvmeDevice:
    """The ``NvmeDevice`` under any fault-injector or sanitizer wrapper."""
    device = system.device
    while not isinstance(device, NvmeDevice):
        wrapper = vars(device)  # FaultyDevice.inner, SanitizedDevice._inner
        device = wrapper.get("inner") or wrapper["_inner"]
    return device


def _maps(system) -> list:
    maps = [_device_of(system)._data]
    cache = getattr(system, "cache", None)
    if cache is not None:
        maps.append(cache._pages)
    return maps


BUILDS = {
    "baseline": lambda: build_baseline(config=CFG),
    "slimio": lambda: build_slimio(config=CFG),
    "slimio-sanitize": lambda: build_slimio(config=CFG, sanitize=True),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_stopped_dropped_handle_releases_what_it_built(build):
    system = _load(build())
    system.stop()
    maps = _maps(system)
    assert all(len(pages) > 0 for pages in maps)
    handle = weakref.ref(system)
    del system
    assert handle() is None
    assert all(len(pages) == 0 and pages.released for pages in maps)


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_unstopped_dropped_handle_releases_nothing(build):
    system = _load(build())
    maps = _maps(system)
    sizes = [len(pages) for pages in maps]
    handle = weakref.ref(system)
    del system
    assert handle() is None
    assert [len(pages) for pages in maps] == sizes
    assert not any(pages.released for pages in maps)


@pytest.mark.parametrize("design", ["slimio", "baseline"])
def test_stopped_dropped_cluster_releases_the_shared_device(design):
    cluster = build_cluster(config=ClusterConfig(
        num_shards=2, design=design,
        system=replace(CFG, policy=LoggingPolicy.ALWAYS)))
    ClusterWorkload(ClosedLoopWorkload(clients=4, total_ops=200, key_count=80,
                                       value_size=1024)).run(cluster)
    cluster.stop()
    maps = [cluster.device._data]
    maps += [s.system.cache._pages for s in cluster if design == "baseline"]
    assert len(maps[0]) > 0
    handle = weakref.ref(cluster)
    del cluster
    assert handle() is None
    assert all(len(pages) == 0 and pages.released for pages in maps)


@pytest.mark.parametrize("system_cls", [SlimIOSystem, BaselineSystem])
@pytest.mark.parametrize("wrap", [False, True], ids=["bare", "faulty"])
def test_a_passed_in_device_is_never_released(system_cls, wrap):
    """The crash harness's pattern: the caller builds the device (and
    may wrap it in a ``FaultyDevice``) and reads it after the system."""
    env = Environment()
    device = NvmeDevice(env, CFG.geometry, CFG.nand, CFG.ftl,
                        fdp=system_cls is SlimIOSystem, num_pids=8)
    system = system_cls(env, CFG, device=FaultyDevice(device) if wrap
                        else device)
    _load(system)
    system.stop()
    image = device.image()
    assert image
    cache = getattr(system, "cache", None)
    del system
    assert not device._data.released
    assert device.image() == image
    lba = min(image)
    assert device.pages(lba) == [image[lba]]
    if cache is not None:  # the handle built its cache, so that goes
        assert cache._pages.released


def test_io_against_a_released_device_raises():
    system = _load(build_slimio(config=CFG))
    system.stop()
    device, layout = system.device, system.space.layout
    env, ring, acct = system.env, system.wal_ring, system.main_account
    pid = system.config.placement.wal_pid
    lba = min(device.image())

    def io(submit):
        ev = yield from submit
        return (yield from ring.wait(ev, acct))

    def read():
        return env.run(until=env.process(io(ring.read_pages(lba, 1, acct))))

    (page,) = read()
    assert any(page) and [page] == device.pages(lba)  # not the zero page
    del system
    with pytest.raises(ReleasedError):
        read()
    with pytest.raises(ReleasedError):
        env.run(until=env.process(io(ring.write_pages(
            lba, bytes(device.lba_size), acct, pid=pid))))
    with pytest.raises(ReleasedError):
        device.pages(lba)
    with pytest.raises(ReleasedError):
        device.poke(lba, [page])
    with pytest.raises(ReleasedError):
        device.image()
    with pytest.raises(ReleasedError):
        device.written_lbas()
    with pytest.raises(ReleasedError):
        verify_lba_space(device, layout,
                         snapshot_fraction=CFG.snapshot_fraction)


def test_io_against_a_released_page_cache_raises():
    system = _load(build_baseline(config=CFG))
    system.stop()
    cache, env = system.cache, system.env
    fid = next(iter(cache._resolvers))
    acct = CpuAccount(env, "reader")
    data = env.run(until=env.process(cache.read(fid, 0, 64, acct)))
    assert any(data)
    del system
    with pytest.raises(ReleasedError):
        next(cache.read(fid, 0, 64, acct))
    with pytest.raises(ReleasedError):
        next(cache.write(fid, 0, b"x" * 64, acct))
    with pytest.raises(ReleasedError):
        next(cache.fsync(fid, acct))


def test_dropping_a_recovered_baseline_frees_its_stored_pages():
    """After a snapshot, a power cut and recovery, the stopped baseline
    holds its device's stored pages (its page cache shares them).
    Dropping the handle frees at least 0.9 x those bytes at once, with
    no collection; a handle in a reference cycle frees none of them."""
    tracemalloc.start()
    try:
        system = build_baseline(config=CFG)
        ClosedLoopWorkload(clients=4, total_ops=600, key_count=300,
                           value_size=4096).run(system)
        env = system.env
        env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
        env.run(until=env.process(system.wal.flush_now()))
        while system.cache.dirty_bytes > 0:
            env.run(until=env.now + 1e-3)
        system.crash()
        result = env.run(until=env.process(
            system.recover(SnapshotKind.ON_DEMAND)))
        system.stop()
        stored = sum(len(p) for p in
                     {id(p): p for p in system.device._data.values()}.values())
        del env
        held, _ = tracemalloc.get_traced_memory()
        del system
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.wal_records_applied == 600
    assert stored > 0
    assert freed >= 0.9 * stored, (freed, stored)
