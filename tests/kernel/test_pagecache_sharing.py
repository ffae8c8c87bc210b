"""The page cache and the device hold each page they share once.

A clean cached page is the device's own immutable page object: a read
miss caches what the read completed with, and writeback caches the
snapshot it handed the device as the command payload. ``write()``
copies a shared page before changing it, so neither the device's
stored page nor an in-flight payload ever changes under it.
"""

import random
import tracemalloc

from repro import SnapshotKind, build_baseline
from repro.bench.scales import TEST_SCALE
from repro.faults import FaultyDevice, PowerCutSpec
from repro.kernel import BlockLayer, PageCache
from repro.nvme import WriteCmd, split_pages
from repro.workloads import ClosedLoopWorkload

from tests.kernel.conftest import drive, joined
from tests.kernel.test_pagecache import linear_resolver

PAGE = 4096


class _Spy:
    """Device proxy that records each command and fires ``seen`` when
    the first write reaches the device (it is then in flight)."""

    def __init__(self, inner, env):
        self.inner = inner
        self.cmds = []
        self.seen = env.event()

    def submit(self, cmd):
        self.cmds.append(cmd)
        if isinstance(cmd, WriteCmd) and not self.seen.triggered:
            self.seen.succeed()
        return (yield from self.inner.submit(cmd))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_clean_page_is_the_device_page_after_writeback(env, cache, account,
                                                       device):
    cache.register_file(1, linear_resolver(7))

    def proc():
        yield from cache.write(1, 0, b"W" * (2 * PAGE), account)
        yield from cache.fsync(1, account)

    drive(env, proc())
    assert cache._pages[(1, 0)] is device.pages(7)[0]
    assert cache._pages[(1, 1)] is device.pages(8)[0]


def test_clean_page_is_the_device_page_after_a_read_miss(env, cache, account,
                                                         device):
    payload = split_pages(b"".join(bytes([i]) * PAGE for i in range(4)), PAGE)
    drive(env, device.submit(WriteCmd(lba=20, nlb=4, data=payload)))
    cache.register_file(2, linear_resolver(20))

    data = drive(env, joined(cache.read_pages(2, 0, 4 * PAGE, account,
                                              readahead=0)))
    assert data == b"".join(payload)
    for i in range(4):
        assert cache._pages[(2, i)] is payload[i] is device.pages(20 + i)[0]


def test_write_copies_a_shared_page_and_leaves_the_device_alone(
        env, cache, account, device):
    cache.register_file(1, linear_resolver(3))

    def first():
        yield from cache.write(1, 0, b"A" * PAGE, account)
        yield from cache.fsync(1, account)

    drive(env, first())
    shared = device.pages(3)[0]

    def second():
        yield from cache.write(1, 10, b"B" * 5, account)
        data = yield from joined(cache.read_pages(1, 0, PAGE, account))
        return data

    data = drive(env, second())
    assert data == b"A" * 10 + b"B" * 5 + b"A" * (PAGE - 15)
    assert shared == b"A" * PAGE  # the device's page did not change
    assert device.pages(3)[0] is shared  # nor was it replaced
    assert cache._pages[(1, 0)] is not shared


def test_redirtying_mid_writeback_never_touches_the_inflight_payload(
        env, device, account):
    spy = _Spy(device, env)
    cache = PageCache(env, BlockLayer(env, spy),
                      dirty_limit_bytes=64 * PAGE)
    cache.register_file(1, linear_resolver(0))
    drive(env, cache.write(1, 0, b"A" * PAGE, account))
    sync = env.process(cache.fsync(1, account))
    env.run(until=spy.seen)  # the writeback command is at the device
    payload = spy.cmds[-1].data
    assert sync.is_alive

    drive(env, cache.write(1, 0, b"C" * 8, account))  # re-dirty mid-I/O
    assert payload[0] == b"A" * PAGE
    assert device.pages(0)[0] is payload[0]
    env.run(until=sync)  # fsync flushes the re-dirtied page too
    assert payload[0] == b"A" * PAGE
    assert device.peek(0) == b"C" * 8 + b"A" * (PAGE - 8)
    got = drive(env, joined(cache.read_pages(1, 0, PAGE, account)))
    assert got == b"C" * 8 + b"A" * (PAGE - 8)


def test_power_cut_during_writeback_tears_whole_pages(env, device,
                                                      account):
    """Pages a torn command did not persist come back as the page
    objects the device held before it; copy-on-write kept those
    objects (shared with the cache until the rewrite) unchanged."""
    seed, n = 3, 8
    keep = random.Random(seed).randint(0, n)
    assert 0 < keep < n
    faulty = FaultyDevice(device, power=PowerCutSpec(at_time=1.0, seed=seed))
    spy = _Spy(faulty, env)
    cache = PageCache(env, BlockLayer(env, spy),
                      dirty_limit_bytes=64 * PAGE)
    cache.register_file(1, linear_resolver(40))
    old = b"".join(bytes([0x10 + i]) * PAGE for i in range(n))
    new = b"".join(bytes([0x80 + i]) * PAGE for i in range(n))

    def settle_old():
        yield from cache.write(1, 0, old, account)
        yield from cache.fsync(1, account)

    drive(env, settle_old())
    spy.seen = env.event()
    drive(env, cache.write(1, 0, new, account))
    assert device.peek(40, n) == old  # the rewrite copied every page
    env.process(cache.fsync(1, account))
    env.run(until=spy.seen)  # the 8-page writeback is in flight
    faulty.cut_now()
    cache.crash()

    stored = device.peek(40, n)
    pages = [stored[i * PAGE:(i + 1) * PAGE] for i in range(n)]
    assert pages[:keep] == [new[i * PAGE:(i + 1) * PAGE] for i in range(keep)]
    assert pages[keep:] == [old[i * PAGE:(i + 1) * PAGE]
                            for i in range(keep, n)]
    assert faulty.obs.total("faults_torn_pages_total") == n - keep


def test_recovered_baseline_holds_each_cached_page_once():
    """After a snapshot, a power cut and recovery, the baseline's page
    cache is full of the pages recovery read. Those must be the device's
    pages, not copies: the cache and the device together free at most
    1.1 x the device's stored page bytes when both are dropped (a
    private copy per cached page makes it about 2 x)."""
    tracemalloc.start()
    try:
        system = build_baseline(
            config=TEST_SCALE.system_config(gc_pressure=False))
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
        assert result.wal_records_applied == 600
        device = system.device
        stored = sum(len(p) for p in
                     {id(p): p for p in device._data.values()}.values())
        cached = system.cache.cached_bytes
        held, _ = tracemalloc.get_traced_memory()
        system.cache._pages.clear()
        device._data.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cached > stored // 2  # recovery really filled the cache
    assert freed <= 1.1 * stored, (freed, stored, cached)
    system.stop()
