"""Filesystem tests: namespace, extents, journal contention, durability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import CpuAccount, Ext4, F2fs
from repro.kernel.fs import Inode

from tests.kernel.conftest import drive


@pytest.fixture
def fs(env, block, cache):
    return Ext4(env, block, cache, extent_pages=8)


def test_create_open_exists(env, fs):
    f = fs.create("wal.aof")
    assert fs.exists("wal.aof")
    assert fs.open("wal.aof").inode is f.inode
    with pytest.raises(FileExistsError):
        fs.create("wal.aof")
    with pytest.raises(FileNotFoundError):
        fs.open("nope")


def test_write_read_roundtrip(env, fs, account):
    f = fs.create("data")
    payload = b"the quick brown fox" * 100

    def proc():
        yield from f.write(payload, account)
        data = yield from f.read(0, len(payload), account)
        return data

    assert drive(env, proc()) == payload
    assert f.size == len(payload)


def test_append_semantics(env, fs, account):
    f = fs.create("log")

    def proc():
        yield from f.write(b"one", account)
        yield from f.write(b"two", account)
        data = yield from f.read(0, 6, account)
        return data

    assert drive(env, proc()) == b"onetwo"


def test_pwrite_at_offset(env, fs, account):
    f = fs.create("data")

    def proc():
        yield from f.write(b"AAAAAA", account)
        yield from f.pwrite(2, b"bb", account)
        data = yield from f.read(0, 6, account)
        return data

    assert drive(env, proc()) == b"AAbbAA"


def test_read_beyond_eof_truncates(env, fs, account):
    f = fs.create("data")

    def proc():
        yield from f.write(b"short", account)
        data = yield from f.read(0, 100, account)
        return data

    assert drive(env, proc()) == b"short"


def test_extent_allocation_grows_file(env, fs, account):
    f = fs.create("big")
    payload = bytes(10 * 4096)  # needs 2 extents at extent_pages=8

    def proc():
        yield from f.write(payload, account)

    drive(env, proc())
    assert f.inode.allocated_pages() >= 10
    assert fs.obs.total("fs_extent_allocs_total") >= 2


def test_out_of_space_raises(env, fs, account):
    f = fs.create("huge")
    too_big = fs.block.device.capacity_bytes + 4096

    def proc():
        yield from f.write(bytes(too_big), account)

    env.process(proc())
    with pytest.raises(OSError):
        env.run()


def test_unlink_frees_space_and_trims(env, fs, account, device):
    free0 = fs.free_bytes
    f = fs.create("temp")

    def proc():
        yield from f.write(bytes(8 * 4096), account)
        yield from f.fsync(account)

    drive(env, proc())
    assert fs.free_bytes < free0
    fs.unlink("temp")
    env.run()  # let the discard process finish
    assert fs.free_bytes == free0
    assert fs.obs.total("fs_discarded_pages_total") >= 8
    assert not fs.exists("temp")


def test_rename_replaces_target(env, fs, account):
    a = fs.create("snapshot.tmp")
    b = fs.create("snapshot.rdb")

    def proc():
        yield from a.write(b"new", account)
        yield from b.write(b"old", account)

    drive(env, proc())
    fs.rename("snapshot.tmp", "snapshot.rdb")
    env.run()
    assert fs.file_size("snapshot.rdb") == 3
    f = fs.open("snapshot.rdb")

    def check():
        data = yield from f.read(0, 3, account)
        return data

    assert drive(env, check()) == b"new"
    assert not fs.exists("snapshot.tmp")


def test_fsync_makes_data_durable_across_crash(env, fs, account, device):
    f = fs.create("durable")
    payload = b"Z" * 4096

    def proc():
        yield from f.write(payload, account)
        yield from f.fsync(account)

    drive(env, proc())
    fs.cache.crash()
    lba = f.inode.page_to_lba(0)
    assert device.peek(lba, 1) == payload


def test_unsynced_write_lost_on_crash(env, fs, account, device):
    f = fs.create("volatile")

    def proc():
        yield from f.write(b"Y" * 4096, account)

    drive(env, proc())
    fs.cache.crash()
    lba = f.inode.page_to_lba(0)
    assert device.peek(lba, 1) == bytes(4096)


def test_journal_contention_between_two_processes(env, block, cache):
    """Two writers on one FS contend on the commit lock (paper §3.1.2)."""
    fs = Ext4(env, block, cache, extent_pages=8)
    wal_acct = CpuAccount(env, "wal")
    snap_acct = CpuAccount(env, "snap")
    f1 = fs.create("wal")
    f2 = fs.create("snap")

    def writer(f, acct):
        for _ in range(50):
            yield from f.write(b"x" * 512, acct)

    env.process(writer(f1, wal_acct))
    env.process(writer(f2, snap_acct))
    env.run()
    total_lock_wait = wal_acct.time_in("fs_lock_wait") + snap_acct.time_in(
        "fs_lock_wait"
    )
    assert total_lock_wait > 0
    assert fs.commit_lock.contended_time > 0


def test_f2fs_contends_less_than_ext4(env, device):
    """Same concurrent workload: F2FS commit lock is held for less time."""
    from repro.kernel import BlockLayer, PageCache

    def run(fs_cls):
        from repro.sim import Environment

        env2 = Environment()
        from repro.flash import FlashGeometry
        from repro.nvme import NvmeDevice
        from tests.kernel.conftest import FAST_NAND, SMALL_FTL

        g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                          pages_per_block=16)
        dev = NvmeDevice(env2, g, FAST_NAND, SMALL_FTL)
        blk = BlockLayer(env2, dev)
        cache = PageCache(env2, blk, dirty_limit_bytes=64 * 4096)
        fs = fs_cls(env2, blk, cache, extent_pages=8)
        a1, a2 = CpuAccount(env2, "a"), CpuAccount(env2, "b")
        f1, f2 = fs.create("one"), fs.create("two")

        def writer(f, acct):
            for _ in range(100):
                yield from f.write(b"x" * 512, acct)

        env2.process(writer(f1, a1))
        env2.process(writer(f2, a2))
        env2.run()
        return fs.commit_lock.held_time

    assert run(F2fs) < run(Ext4)


def test_fs_cpu_attributed_to_account(env, fs, account):
    f = fs.create("x")

    def proc():
        yield from f.write(b"data" * 100, account)

    drive(env, proc())
    assert account.time_in("fs") > 0
    assert account.time_in("syscall") > 0
    assert account.time_in("copy") > 0


def test_file_size_api(env, fs, account):
    fs.create("empty")
    assert fs.file_size("empty") == 0
    with pytest.raises(FileNotFoundError):
        fs.file_size("ghost")


# --- extent lookup: bisection against the linear scan ----------------------


def scan_page_to_lba(extents, page_idx):
    """The linear extent scan ``Inode.page_to_lba`` replaced."""
    off = page_idx
    for lba, n in extents:
        if off < n:
            return lba + off
        off -= n
    raise ValueError(page_idx)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=0, max_value=9)),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_extent_bisection_matches_linear_scan(extents):
    inode = Inode(file_id=1, name="f")
    for lba, n in extents:
        inode.add_extent(lba, n)
    total = sum(n for _, n in extents)
    assert inode.allocated_pages() == total
    for page_idx in range(total + 3):
        try:
            want = ("lba", scan_page_to_lba(extents, page_idx))
        except ValueError:
            want = ("past the allocation",)
        try:
            got = ("lba", inode.page_to_lba(page_idx))
        except ValueError:
            got = ("past the allocation",)
        assert got == want
    inode.clear_extents()
    assert inode.allocated_pages() == 0 and inode.extents == []
    with pytest.raises(ValueError):
        inode.page_to_lba(0)
