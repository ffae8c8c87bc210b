"""Page cache tests: buffering, writeback, throttling, crash semantics."""

import pytest

from repro.kernel import CpuAccount, PageCache
from repro.nvme import WriteCmd, split_pages

from tests.kernel.conftest import drive


def linear_resolver(base):
    return lambda page_idx: base + page_idx


def test_write_read_through_cache(env, cache, account):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.write(1, 0, b"hello world", account)
        data = yield from cache.read(1, 0, 11, account)
        return data

    assert drive(env, proc()) == b"hello world"
    assert cache.obs.total("pagecache_cache_hits_total") > 0


def test_write_unregistered_file_rejected(env, cache, account):
    def proc():
        yield from cache.write(99, 0, b"x", account)

    env.process(proc())
    with pytest.raises(KeyError):
        env.run()


def test_dirty_tracking_and_fsync_persists(env, cache, account, device):
    cache.register_file(1, linear_resolver(0))
    payload = b"A" * (3 * 4096)

    def proc():
        yield from cache.write(1, 0, payload, account)
        assert cache.dirty_bytes == 3 * 4096
        yield from cache.fsync(1, account)
        assert cache.dirty_bytes == 0

    drive(env, proc())
    assert device.peek(0, 3) == payload


def test_crash_loses_unsynced_data(env, cache, account, device):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.write(1, 0, b"B" * 4096, account)

    drive(env, proc())
    cache.crash()
    # nothing was fsynced and writeback had no time to run
    assert device.peek(0, 1) == bytes(4096)


def test_background_writeback_eventually_flushes(env, cache, account, device):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.write(1, 0, b"C" * 4096, account)
        yield env.timeout(1.0)  # several writeback intervals

    drive(env, proc())
    assert device.peek(0, 1) == b"C" * 4096
    assert cache.dirty_bytes == 0


def test_dirty_throttle_blocks_writer(env, block, device):
    cache = PageCache(env, block, dirty_limit_bytes=4 * 4096,
                      writeback_interval=0.001)
    cache.register_file(1, linear_resolver(0))
    account = CpuAccount(env, "writer")

    def proc():
        for i in range(16):
            yield from cache.write(1, i * 4096, bytes(4096), account)

    drive(env, proc())
    assert cache.obs.total("pagecache_throttle_events_total") > 0
    assert account.time_in("dirty_throttle") > 0


def test_partial_page_writes_compose(env, cache, account):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.write(1, 0, b"aaaa", account)
        yield from cache.write(1, 2, b"BB", account)
        data = yield from cache.read(1, 0, 4, account)
        return data

    assert drive(env, proc()) == b"aaBB"


def test_write_spanning_pages(env, cache, account):
    cache.register_file(1, linear_resolver(0))
    payload = bytes(range(256)) * 33  # 8448 bytes: crosses two boundaries

    def proc():
        yield from cache.write(1, 100, payload, account)
        data = yield from cache.read(1, 100, len(payload), account)
        return data

    assert drive(env, proc()) == payload


def test_read_miss_fetches_from_device(env, cache, account, device, block):
    # put data on the device directly, then read through a cold cache
    payload = b"D" * 4096

    def seed():
        yield from device.submit(WriteCmd(lba=5, nlb=1, data=[payload]))

    drive(env, seed())
    cache.register_file(2, linear_resolver(5))

    def proc():
        data = yield from cache.read(2, 0, 4096, account)
        return data

    assert drive(env, proc()) == payload
    assert cache.obs.total("pagecache_cache_misses_total") > 0
    assert account.time_in("ssd_wait") > 0


def test_readahead_prefetches_beyond_request(env, cache, account, device):
    payload = bytes([1]) * 4096 * 8

    def seed():
        yield from device.submit(
            WriteCmd(lba=10, nlb=8, data=split_pages(payload, 4096)))

    drive(env, seed())
    cache.register_file(3, linear_resolver(10))

    def proc():
        yield from cache.read(3, 0, 4096, account, readahead=8)

    drive(env, proc())
    # pages beyond the first are already cached
    assert cache.is_cached(3, 4)


def test_drop_file_discards_pages(env, cache, account):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.write(1, 0, b"x" * 4096, account)

    drive(env, proc())
    cache.drop_file(1)
    assert cache.dirty_bytes == 0
    assert not cache.is_cached(1, 0)


def test_lba_runs_split_on_discontiguity():
    resolver = {0: 10, 1: 11, 2: 50, 3: 51, 4: 52}.__getitem__
    runs = list(PageCache._lba_runs(resolver, 0, 5))
    assert runs == [(10, 0, 2), (50, 2, 3)]


def test_fsync_on_clean_file_is_cheap(env, cache, account):
    cache.register_file(1, linear_resolver(0))

    def proc():
        yield from cache.fsync(1, account)

    drive(env, proc())
    assert cache.obs.total("pagecache_fsyncs_total") == 1


def test_invalid_configs(env, block):
    with pytest.raises(ValueError):
        PageCache(env, block, dirty_limit_bytes=100)
    with pytest.raises(ValueError):
        PageCache(env, block, background_ratio=0.0)
