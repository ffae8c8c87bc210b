"""File systems for the traditional path: VFS, EXT4, F2FS.

Implements the pieces of a journaling file system that matter to the
paper's §3.1 analysis:

* **extent allocation** over the device's LBA space (first-fit over a
  free-extent list; files grow in multi-megabyte extents so the
  sequential WAL/snapshot streams stay mostly contiguous);
* **a shared commit lock** — EXT4's journal (jbd2) commit lock or
  F2FS's log-allocation lock. Both the WAL process and the snapshot
  process must take it on metadata-touching operations, which is the
  §3.1.2 scalability bottleneck. EXT4 holds it longer than F2FS,
  matching the paper's "F2FS scales better but not perfectly";
* **per-operation file-system CPU** in the write path (Table 2's
  11–14 % snapshot-process share);
* buffered data flow through the :class:`~repro.kernel.pagecache.PageCache`,
  and fsync via journal commit + synchronous flush;
* TRIM on unlink (``discard`` mount option), so deleting an old
  snapshot invalidates its pages inside the SSD.

:class:`PosixFile` is the syscall surface used by the baseline engine:
each call pays syscall overhead and is charged to the calling process's
:class:`~repro.kernel.accounting.CpuAccount`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.kernel.blocklayer import BlockLayer
from repro.kernel.costs import SYSCALL_OVERHEAD
from repro.kernel.pagecache import PageCache
from repro.nvme import DeallocateCmd
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Lock

__all__ = ["Filesystem", "Ext4", "F2fs", "PosixFile", "Inode"]

US = 1e-6


@dataclass
class Inode:
    """On-"disk" file metadata.

    ``extents`` grow through :meth:`add_extent` and empty through
    :meth:`clear_extents`, which keep the file page each extent starts
    at and the running page total: a page lookup is a bisection, not a
    scan of the extent list.
    """

    file_id: int
    name: str
    size: int = 0
    extents: list[tuple[int, int]] = field(
        default_factory=list, init=False)  # (lba, npages)
    _starts: list[int] = field(default_factory=list, init=False, repr=False)
    _allocated: int = field(default=0, init=False, repr=False)

    def allocated_pages(self) -> int:
        return self._allocated

    def add_extent(self, lba: int, npages: int) -> None:
        self.extents.append((lba, npages))
        self._starts.append(self._allocated)
        self._allocated += npages

    def clear_extents(self) -> None:
        self.extents.clear()
        self._starts.clear()
        self._allocated = 0

    def page_to_lba(self, page_idx: int) -> int:
        if not 0 <= page_idx < self._allocated:
            raise ValueError(
                f"page {page_idx} beyond allocation of file {self.name!r}"
            )
        i = bisect_right(self._starts, page_idx) - 1
        return self.extents[i][0] + page_idx - self._starts[i]


class _ExtentAllocator:
    """First-fit allocator over a contiguous LBA range."""

    def __init__(self, start: int, num_lbas: int):
        self._free: list[tuple[int, int]] = [(start, num_lbas)]

    def alloc(self, npages: int) -> int:
        for i, (start, n) in enumerate(self._free):
            if n >= npages:
                if n == npages:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + npages, n - npages)
                return start
        raise OSError("filesystem out of space")

    def free(self, lba: int, npages: int) -> None:
        self._free.append((lba, npages))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for start, n in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + n)
            else:
                merged.append((start, n))
        self._free = merged

    @property
    def free_pages(self) -> int:
        return sum(n for _, n in self._free)


class Filesystem:
    """Base journaling file system over one block layer + page cache.

    Subclasses set the contention profile via class attributes.
    """

    #: human name ("ext4" / "f2fs")
    fs_name = "genericfs"
    #: time the shared commit lock is held per metadata commit
    commit_hold_time = 0.6 * US
    #: file-system CPU burned per write call (alloc, tree update)
    write_path_cpu = 1.2 * US
    #: file-system CPU per read call
    read_path_cpu = 0.4 * US
    #: whether plain buffered write() takes the commit lock
    journal_on_write = True
    #: journal blocks written to the device per fsync commit
    #: (jbd2 descriptor+commit for EXT4; F2FS node/summary block)
    journal_io_pages = 2

    def __init__(
        self,
        env: Environment,
        block_layer: BlockLayer,
        pagecache: PageCache | None = None,
        extent_pages: int = 1024,
        obs=None,
    ):
        self.env = env
        self.block = block_layer
        self.obs = obs or MetricsRegistry(env)
        self.cache = pagecache or PageCache(env, block_layer, obs=self.obs)
        self.extent_pages = extent_pages
        self.page_size = block_layer.device.lba_size
        self.commit_lock = Lock(env)
        # the journal lives in the last pages of the device; fsync
        # commits cycle through it (real device writes — the baseline's
        # extra I/O that passthru does not pay)
        self._journal_pages = min(64, block_layer.device.num_lbas // 8)
        self._journal_base = block_layer.device.num_lbas - self._journal_pages
        self._journal_cursor = 0
        self._alloc = _ExtentAllocator(0, self._journal_base)
        self._files: dict[str, Inode] = {}
        self._next_id = 1
        # The lock-wait histogram includes uncontended (zero-wait)
        # commits, so its mean is the true per-commit tax and its p99
        # exposes the §3.1.2 contention tail.
        self._obs_lock_wait = self.obs.histogram(
            "fs_commit_lock_wait_seconds", fs=self.fs_name
        )
        self._obs_journal_commits = self.obs.counter(
            "fs_journal_commits_total", fs=self.fs_name
        )
        self._obs_journal_pages = self.obs.counter(
            "fs_journal_pages_total", fs=self.fs_name
        )
        self._obs_commits = self.obs.counter("fs_commits_total")
        self._obs_discarded = self.obs.counter("fs_discarded_pages_total")
        self._obs_extent_allocs = self.obs.counter("fs_extent_allocs_total")
        self._obs_write_calls = self.obs.counter("fs_write_calls_total")
        self._obs_bytes_written = self.obs.counter("fs_bytes_written_total")
        self._obs_read_calls = self.obs.counter("fs_read_calls_total")
        self._obs_fsync_calls = self.obs.counter("fs_fsync_calls_total")

    # ------------------------------------------------------------------ namespace
    def create(self, name: str) -> PosixFile:
        if name in self._files:
            raise FileExistsError(name)
        inode = Inode(file_id=self._next_id, name=name)
        self._next_id += 1
        self._files[name] = inode
        self.cache.register_file(inode.file_id, inode.page_to_lba)
        return PosixFile(self, inode)

    def open(self, name: str) -> PosixFile:
        inode = self._files.get(name)
        if inode is None:
            raise FileNotFoundError(name)
        return PosixFile(self, inode)

    def exists(self, name: str) -> bool:
        return name in self._files

    def rename(self, old: str, new: str) -> None:
        """Atomic rename (how baseline Redis publishes a snapshot)."""
        inode = self._files.pop(old, None)
        if inode is None:
            raise FileNotFoundError(old)
        victim = self._files.pop(new, None)
        if victim is not None:
            self._destroy(victim)
        inode.name = new
        self._files[new] = inode

    def unlink(self, name: str) -> None:
        inode = self._files.pop(name, None)
        if inode is None:
            raise FileNotFoundError(name)
        self._destroy(inode)

    def _destroy(self, inode: Inode) -> None:
        self.cache.drop_file(inode.file_id)
        for lba, npages in inode.extents:
            self._alloc.free(lba, npages)
            # discard mount option: TRIM freed extents inside the SSD
            self.env.process(
                self._discard(lba, npages), name=f"discard-{inode.name}"
            )
        inode.clear_extents()
        inode.size = 0

    def _discard(self, lba: int, npages: int) -> Generator:
        yield from self.block.submit(DeallocateCmd(lba=lba, nlb=npages))
        self._obs_discarded.inc(npages)

    def file_size(self, name: str) -> int:
        inode = self._files.get(name)
        if inode is None:
            raise FileNotFoundError(name)
        return inode.size

    @property
    def free_bytes(self) -> int:
        return self._alloc.free_pages * self.page_size

    # ------------------------------------------------------------------ internals
    def _commit(self, account: CpuAccount) -> Generator:
        """Take the shared commit lock (jbd2 / log allocation)."""
        t0 = self.env.now
        req = self.commit_lock.request()
        yield req
        wait = self.env.now - t0
        if wait > 0:
            account.note("fs_lock_wait", wait)
        self._obs_lock_wait.observe(wait)
        _cpu_ev = account.charge("fs", self.commit_hold_time)
        if _cpu_ev is not None:
            yield _cpu_ev
        self.commit_lock.release(req)
        self._obs_commits.inc()

    def _commit_io(self, account: CpuAccount) -> Generator:
        """A journaled commit with its device writes (fsync path)."""
        t0 = self.env.now
        req = self.commit_lock.request()
        yield req
        wait = self.env.now - t0
        if wait > 0:
            account.note("fs_lock_wait", wait)
        self._obs_lock_wait.observe(wait)
        try:
            _cpu_ev = account.charge("fs", self.commit_hold_time)
            if _cpu_ev is not None:
                yield _cpu_ev
            from repro.nvme import WriteCmd

            for _ in range(self.journal_io_pages):
                lba = self._journal_base + self._journal_cursor
                self._journal_cursor = (
                    self._journal_cursor + 1
                ) % self._journal_pages
                t_io = self.env.now
                yield from self.block.submit(
                    WriteCmd(lba=lba, nlb=1), sync=True
                )
                account.note("ssd_wait", self.env.now - t_io)
        finally:
            self.commit_lock.release(req)
        self._obs_journal_commits.inc()
        self._obs_journal_pages.inc(self.journal_io_pages)

    def _ensure_allocated(self, inode: Inode, upto_bytes: int,
                          account: CpuAccount) -> Generator:
        needed_pages = -(-upto_bytes // self.page_size)
        while inode.allocated_pages() < needed_pages:
            # grow one extent at a time: resilient to free-list
            # fragmentation, and keeps large files in multiple extents
            grow = self.extent_pages
            lba = self._alloc.alloc(grow)
            inode.add_extent(lba, grow)
            _cpu_ev = account.charge("fs", self.write_path_cpu)
            if _cpu_ev is not None:
                yield _cpu_ev
            self._obs_extent_allocs.inc()


class Ext4(Filesystem):
    """EXT4-flavoured contention: jbd2 journal on every write path op."""

    fs_name = "ext4"
    commit_hold_time = 0.9 * US
    write_path_cpu = 1.4 * US
    read_path_cpu = 0.4 * US
    journal_on_write = True
    journal_io_pages = 2


class F2fs(Filesystem):
    """F2FS-flavoured: log-structured, lighter but non-zero contention."""

    fs_name = "f2fs"
    commit_hold_time = 0.35 * US
    write_path_cpu = 1.1 * US
    read_path_cpu = 0.4 * US
    journal_on_write = True
    journal_io_pages = 1


class PosixFile:
    """A file descriptor: the blocking syscall API of the baseline.

    All methods are simulation generators and need the calling
    process's :class:`CpuAccount` — one OS process may hold many
    descriptors, but each call runs on the caller's CPU.
    """

    def __init__(self, fs: Filesystem, inode: Inode):
        self.fs = fs
        self.inode = inode
        self._append_pos = inode.size

    @property
    def name(self) -> str:
        return self.inode.name

    @property
    def size(self) -> int:
        return self.inode.size

    def write(self, data: bytes, account: CpuAccount) -> Generator:
        """Appending ``write()`` — syscall + journal + buffered copy."""
        yield from self._pwrite(self._append_pos, data, account)
        self._append_pos += len(data)

    def pwrite(self, offset: int, data: bytes, account: CpuAccount) -> Generator:
        yield from self._pwrite(offset, data, account)

    def _pwrite(self, offset: int, data: bytes, account: CpuAccount) -> Generator:
        fs = self.fs
        _cpu_ev = account.charge("syscall", SYSCALL_OVERHEAD)
        if _cpu_ev is not None:
            yield _cpu_ev
        yield from fs._ensure_allocated(self.inode, offset + len(data), account)
        if fs.journal_on_write:
            yield from fs._commit(account)
        _cpu_ev = account.charge("fs", fs.write_path_cpu)
        if _cpu_ev is not None:
            yield _cpu_ev
        yield from fs.cache.write(self.inode.file_id, offset, data, account)
        self.inode.size = max(self.inode.size, offset + len(data))
        fs._obs_write_calls.inc()
        fs._obs_bytes_written.inc(len(data))

    def read(
        self,
        offset: int,
        length: int,
        account: CpuAccount,
        readahead: int | None = None,
    ) -> Generator:
        fs = self.fs
        _cpu_ev = account.charge("syscall", SYSCALL_OVERHEAD)
        if _cpu_ev is not None:
            yield _cpu_ev
        _cpu_ev = account.charge("fs", fs.read_path_cpu)
        if _cpu_ev is not None:
            yield _cpu_ev
        length = max(0, min(length, self.inode.size - offset))
        if length == 0:
            return b""
        data = yield from fs.cache.read(
            self.inode.file_id, offset, length, account, readahead=readahead
        )
        fs._obs_read_calls.inc()
        return data

    def fsync(self, account: CpuAccount) -> Generator:
        fs = self.fs
        _cpu_ev = account.charge("syscall", SYSCALL_OVERHEAD)
        if _cpu_ev is not None:
            yield _cpu_ev
        yield from fs.cache.fsync(self.inode.file_id, account)
        yield from fs._commit_io(account)
        fs._obs_fsync_calls.inc()

    def seek_end(self) -> int:
        self._append_pos = self.inode.size
        return self._append_pos
