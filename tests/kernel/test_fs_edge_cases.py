"""Filesystem edge cases: fragmentation, journal wrap, attribution."""

import pytest

from repro.kernel import CpuAccount, Ext4, F2fs

from tests.kernel.conftest import drive


@pytest.fixture
def fs(env, block, cache):
    return F2fs(env, block, cache, extent_pages=4)


def test_fragmented_allocation_still_correct(env, fs, account):
    """Interleaved create/delete fragments the free list; files still
    round-trip through non-contiguous extents."""
    keep = []
    for i in range(6):
        f = fs.create(f"tmp{i}")

        def w(f=f, i=i):
            yield from f.write(bytes([i]) * 4 * 4096, account)

        drive(env, w())
        keep.append(f)
    # free every other file -> holes
    for i in (0, 2, 4):
        fs.unlink(f"tmp{i}")
    env.run()
    big = fs.create("big")
    payload = bytes(range(256)) * (14 * 4096 // 256)

    def wbig():
        yield from big.write(payload, account)
        data = yield from big.read(0, len(payload), account)
        return data

    assert drive(env, wbig()) == payload
    assert len(big.inode.extents) > 1  # actually fragmented


def test_journal_cursor_wraps(env, fs, account):
    f = fs.create("x")

    def proc():
        yield from f.write(b"d" * 100, account)
        for _ in range(fs._journal_pages + 5):
            yield from f.fsync(account)

    drive(env, proc())
    # wrapped: cursor stayed within the journal area
    assert 0 <= fs._journal_cursor < fs._journal_pages
    assert fs.obs.total("fs_journal_commits_total") == fs._journal_pages + 5


def test_journal_area_excluded_from_allocation(env, fs, account):
    """File extents never collide with the journal area."""
    f = fs.create("data")

    def proc():
        yield from f.write(bytes(50 * 4096), account)

    drive(env, proc())
    for lba, n in f.inode.extents:
        assert lba + n <= fs._journal_base


def test_ext4_journal_writes_more_than_f2fs(env, device, costs):
    from repro.kernel import BlockLayer, PageCache
    from repro.flash import FlashGeometry
    from repro.nvme import NvmeDevice
    from repro.sim import Environment
    from tests.kernel.conftest import FAST_NAND, SMALL_FTL

    def journal_pages(fs_cls):
        env2 = Environment()
        g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                          pages_per_block=16)
        dev = NvmeDevice(env2, g, FAST_NAND, SMALL_FTL)
        blk = BlockLayer(env2, dev, costs)
        cache = PageCache(env2, blk, costs, dirty_limit_bytes=64 * 4096)
        fs = fs_cls(env2, blk, cache, extent_pages=8)
        acct = CpuAccount(env2, "w")
        f = fs.create("f")

        def proc():
            for _ in range(10):
                yield from f.write(b"x" * 512, acct)
                yield from f.fsync(acct)

        p = env2.process(proc())
        env2.run(until=p)
        return fs.obs.total("fs_journal_pages_total")

    assert journal_pages(Ext4) > journal_pages(F2fs)


def test_fsync_ssd_wait_attributed(env, fs, account):
    f = fs.create("x")

    def proc():
        yield from f.write(b"z" * 4096, account)
        yield from f.fsync(account)

    drive(env, proc())
    assert account.time_in("ssd_wait") > 0


def test_reopen_after_append_continues_at_end(env, fs, account):
    f1 = fs.create("log")

    def w1():
        yield from f1.write(b"first", account)

    drive(env, w1())
    f2 = fs.open("log")
    f2.seek_end()

    def w2():
        yield from f2.write(b"second", account)
        data = yield from f2.read(0, 11, account)
        return data

    assert drive(env, w2()) == b"firstsecond"
