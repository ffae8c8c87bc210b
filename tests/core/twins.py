"""The copying data planes, kept as reference twins.

Before each WAL and snapshot byte was copied into its page once, the
chain was:

* :func:`encode_two_concats`: ``hdr + key + value``, then ``body + crc``;
* the WAL manager's join of the drained records (here, the twin sink's
  :meth:`JoiningWalPath.append`);
* :meth:`JoiningWalPath._flush_locked`: the join of the staged buffers,
  the tail prefixed, the padding appended, then ``split_pages``;
* :class:`BufferingSnapshotPath`: the stream extended into one
  ``bytearray``, batches split out of it, the rest copied, padded and
  split at ``finalize``;
* :class:`CopyingPageCache`: every page ``write()`` touches becomes a
  private ``bytearray`` and writeback snapshots every dirty page.

``tests/core/test_copy_chain_twin.py`` drives each twin and the one
path in ``src`` with the same appends and requires the same pages,
metadata, replay and writeback payloads.
"""

from __future__ import annotations

import zlib
from collections.abc import Generator

from repro.core.paths import SnapshotPath, WalPath
from repro.kernel import PageCache
from repro.kernel.costs import BIO_SUBMIT_COST, PAGECACHE_PAGE_OP, copy_time
from repro.nvme import WriteCmd, split_pages
from repro.persist.encoding import _AOF_HDR, _AOF_MAGIC, _CRC, AofRecord


def encode_two_concats(record: AofRecord) -> bytes:
    hdr = _AOF_HDR.pack(_AOF_MAGIC, record.op, len(record.key),
                        len(record.value))
    body = hdr + record.key + record.value
    return body + _CRC.pack(zlib.crc32(body))


def _pad_to_page(data: bytes, page: int) -> bytes:
    rem = len(data) % page
    return data if rem == 0 else data + bytes(page - rem)


class JoiningWalPath(WalPath):
    """Stages one joined buffer per append; a flush joins them behind
    the tail, pads and splits."""

    def append(self, records, account) -> Generator:
        data = b"".join(records)
        self._staged.append(data)
        self._staged_bytes += len(data)
        self._gen_bytes += len(data)
        return
        yield  # pragma: no cover

    def _flush_locked(self, account) -> Generator:
        if not self._staged:
            return
        page = self.ring.device.lba_size
        data = self._tail + b"".join(self._staged)
        self._staged.clear()
        self._staged_bytes = 0

        start_vpn = (
            self._tail_vpn
            if self._tail_vpn is not None
            else self.space.wal.alloc(0)
        )
        full_pages = len(data) // page
        rem = len(data) % page
        needed = full_pages + (1 if rem else 0)
        already = 1 if self._tail_vpn is not None else 0
        if needed > already:
            yield from self._make_room(needed - already, account)
            self.space.wal.alloc(needed - already)

        payload = split_pages(_pad_to_page(data, page), page)
        events = []
        vpn = start_vpn
        for lba, n in self.space.wal.contiguous_run(start_vpn, needed):
            piece = payload[vpn - start_vpn : vpn - start_vpn + n]
            ev = yield from self.ring.submit(
                WriteCmd(lba=lba, nlb=n, data=piece,
                         pid=self.placement.wal_pid),
                account,
            )
            events.append(ev)
            vpn += n
        for ev in events:
            yield from self.ring.wait(ev, account)
        self._obs_flush_bytes.observe(float(len(data)))
        self._obs_flush_pages.inc(needed)

        if rem:
            self._tail = data[full_pages * page :]
            self._tail_vpn = start_vpn + full_pages
        else:
            self._tail = b""
            self._tail_vpn = None
        yield from self._update_metadata_async(account)


class BufferingSnapshotPath(SnapshotPath):
    """Extends the stream into one ``bytearray`` and splits batches out
    of it."""

    def _ensure_slot(self) -> int:
        if self._slot is None:
            self._buffer = bytearray()
        return super()._ensure_slot()

    def write(self, data, account) -> Generator:
        slot = self._ensure_slot()
        self._buffer.extend(data)
        self._bytes += len(data)
        page = self.ring.device.lba_size
        batch_bytes = self.batch_pages * page
        while len(self._buffer) >= batch_bytes:
            with memoryview(self._buffer) as view:
                chunk = split_pages(view[:batch_bytes], page)
            del self._buffer[:batch_bytes]
            yield from self._submit_pages(slot, chunk, account)

    def finalize(self, account) -> Generator:
        self._ensure_slot()
        page = self.ring.device.lba_size
        if self._buffer:
            self._pages = split_pages(
                _pad_to_page(bytes(self._buffer), page), page)
            self._buffer.clear()
        yield from super().finalize(account)


class CopyingPageCache(PageCache):
    """Copies every page ``write()`` touches into a private
    ``bytearray``; writeback snapshots each dirty page."""

    def _writable(self, file_id: int, page_idx: int) -> bytearray:
        key = (file_id, page_idx)
        buf = self._pages.get(key)
        if type(buf) is not bytearray:
            buf = bytearray(self.page_size) if buf is None else bytearray(buf)
            self._pages[key] = buf
        return buf

    def write(self, file_id, offset, data, account) -> Generator:
        self._pages.check()
        if file_id not in self._resolvers:
            raise KeyError(f"file {file_id} not registered")
        if offset < 0:
            raise ValueError("negative offset")
        _cpu_ev = account.charge("copy", copy_time(len(data)))
        if _cpu_ev is not None:
            yield _cpu_ev
        ps = self.page_size
        pos = 0
        n_ops = 0
        newly_dirty = 0
        while pos < len(data):
            abs_off = offset + pos
            page_idx, in_page = divmod(abs_off, ps)
            n = min(ps - in_page, len(data) - pos)
            buf = self._writable(file_id, page_idx)
            buf[in_page : in_page + n] = data[pos : pos + n]
            key = (file_id, page_idx)
            if key not in self._dirty:
                self._dirty.add(key)
                newly_dirty += 1
            pos += n
            n_ops += 1
        _cpu_ev = account.charge("pagecache", n_ops * PAGECACHE_PAGE_OP)
        if _cpu_ev is not None:
            yield _cpu_ev
        _cpu_ev = account.charge(
            "pagecache", newly_dirty * BIO_SUBMIT_COST
        )
        if _cpu_ev is not None:
            yield _cpu_ev
        self._obs_buffered_writes.inc()
        self._obs_dirty.set(float(self.dirty_bytes))
        self._kick_writeback()
        if self.dirty_bytes > self.dirty_limit:
            waiter = self.env.event()
            self._throttled.append(waiter)
            t0 = self.env.now
            yield self.env.any_of(
                [waiter, self.env.timeout(self.max_throttle_pause)]
            )
            if not waiter.triggered:
                try:
                    self._throttled.remove(waiter)
                except ValueError:
                    pass
            account.note("dirty_throttle", self.env.now - t0)
            self._obs_throttles.inc()
            self._obs_throttle_wait.observe(self.env.now - t0)

    def _snapshot(self, fid: int, idx: int) -> bytes:
        key = (fid, idx)
        snap = bytes(self._pages[key])
        self._pages[key] = snap
        return snap
