"""Baseline transports: persistence over the traditional kernel path.

These bind the abstract sinks to POSIX files on a journaling file
system — this is stock Redis: the WAL is an append-only file fsynced
per policy, the snapshot is written to a temp file and atomically
renamed over the previous one, recovery reads files back through the
page cache.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.kernel.accounting import CpuAccount
from repro.kernel.fs import Filesystem, PosixFile
from repro.nvme.copies import _COPIED, cut_runs
from repro.persist.encoding import AofReader
from repro.persist.interfaces import (
    READ_WINDOW_PAGES,
    AppendSink,
    SnapshotSink,
    SnapshotSource,
)

__all__ = ["FileAppendSink", "FileSnapshotSink", "FileSnapshotSource"]


class FileAppendSink(AppendSink):
    """Append-only file (AOF) on a file system."""

    def __init__(self, fs: Filesystem, name: str = "appendonly.aof"):
        self.fs = fs
        self.base_name = name
        self._generation = 0
        self._file: PosixFile = fs.create(self._gen_name())
        self._prev_files: list[PosixFile] = []

    def _gen_name(self) -> str:
        return f"{self.base_name}.{self._generation}"

    @property
    def size(self) -> int:
        return self._file.size

    def append(self, records: list[bytes], account: CpuAccount) -> Generator:
        """One ``write()`` of the records; their join is its user
        buffer, as Redis's ``aof_buf`` is."""
        data = b"".join(records)
        if len(records) > 1:  # a join of one is that record itself
            _COPIED["sink_join"] += len(data)
        yield from self._file.write(data, account)

    def flush(self, account: CpuAccount) -> Generator:
        yield from self._file.fsync(account)

    def begin_generation(self, account: CpuAccount) -> Generator:
        """New AOF file; older ones stay until the snapshot lands.

        More than one previous generation only accumulates after failed
        WAL-snapshots (their retire never came) — replay still works
        because ``read_all`` feeds them oldest-first.
        """
        self._prev_files.append(self._file)
        self._generation += 1
        self._file = self.fs.create(self._gen_name())
        yield from self.fs._commit(account)

    def retire_previous(self, account: CpuAccount) -> Generator:
        """Unlink the pre-snapshot AOF files (snapshot durable)."""
        for f in self._prev_files:
            self.fs.unlink(f.name)
        if self._prev_files:
            self._prev_files.clear()
            yield from self.fs._commit(account)

    def read_all(self, account: CpuAccount, reader: AofReader) -> Generator:
        """One ``read()`` per generation file, oldest first. The read
        hands back the cached pages, and the reader is fed them
        :data:`READ_WINDOW_PAGES` at a time, so no copy of a whole file
        is made."""
        for f in (*self._prev_files, self._file):
            pages = yield from f.read_pages(0, f.size, account)
            for i in range(0, len(pages), READ_WINDOW_PAGES):
                reader.feed(b"".join(pages[i:i + READ_WINDOW_PAGES]))


#: Redis's rio buffer: one ``write()`` syscall per this many snapshot bytes
RIO_BUFFER_BYTES = 8192


class FileSnapshotSink(SnapshotSink):
    """Temp-file-then-rename snapshot publication (stock Redis RDB).

    Writes go through an 8 KiB user buffer, one ``write()`` syscall per
    buffer — Redis's rio layer does exactly this, and it is why the
    baseline snapshot pays so many syscalls (§3.1.1/§3.1.3). The buffer
    is filled by one copy of each byte, cut from the pieces written.
    """

    def __init__(self, fs: Filesystem, name: str = "dump.rdb"):
        self.fs = fs
        self.target_name = name
        self._seq = 0
        self._tmp: PosixFile | None = None
        self._written = 0
        #: bytes short of a buffer, uncopied
        self._rest: list = []

    @property
    def bytes_written(self) -> int:
        return self._written

    def _ensure_tmp(self) -> PosixFile:
        if self._tmp is None:
            self._seq += 1
            self._tmp = self.fs.create(f"{self.target_name}.tmp{self._seq}")
            self._written = 0
            self._rest = []
        return self._tmp

    def write(self, data: bytes, account: CpuAccount) -> Generator:
        tmp = self._ensure_tmp()
        self._written += len(data)
        chunks, self._rest = cut_runs([*self._rest, data], RIO_BUFFER_BYTES)
        _COPIED["sink_join"] += len(chunks) * RIO_BUFFER_BYTES
        for chunk in chunks:
            yield from tmp.write(chunk, account)

    def finalize(self, account: CpuAccount) -> Generator:
        if self._tmp is None:
            raise RuntimeError("nothing written")
        if self._rest:
            rest, self._rest = self._rest, []
            chunk = b"".join(rest)
            if chunk is not rest[0]:  # a join of one bytes is itself
                _COPIED["sink_join"] += len(chunk)
            yield from self._tmp.write(chunk, account)
        yield from self._tmp.fsync(account)
        self.fs.rename(self._tmp.name, self.target_name)
        yield from self.fs._commit(account)  # rename journal commit
        # one finalize per sink at a time (the server serializes
        # snapshots; a concurrent finalize already raises above)
        self._tmp = None  # slimlint: ignore[SLIM010] single snapshot writer

    def abort(self) -> None:
        if self._tmp is not None:
            self.fs.unlink(self._tmp.name)
            self._tmp = None
            self._written = 0
            self._rest = []


class FileSnapshotSource(SnapshotSource):
    """Sequential page-cache reads of a published snapshot file."""

    def __init__(self, fs: Filesystem, name: str = "dump.rdb",
                 readahead_pages: int | None = None):
        self.fs = fs
        self.name = name
        self.readahead_pages = readahead_pages
        self._file = fs.open(name)

    @property
    def size(self) -> int:
        return self._file.size

    def read(self, offset: int, length: int, account: CpuAccount) -> Generator:
        data = yield from self._file.read(
            offset, length, account, readahead=self.readahead_pages
        )
        return data
