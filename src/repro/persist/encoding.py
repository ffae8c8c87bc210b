"""Binary codecs for the WAL (AOF) and snapshots (RDB).

Both formats are CRC-protected and designed for the failure modes the
recovery path must survive:

* **AOF records** are self-delimiting; replay stops cleanly at the
  first torn or corrupt record (a crash mid-append), keeping everything
  before it.
* **RDB streams** are chunked — each chunk is a compressed batch of
  entries with its own CRC — so a snapshot can be written incrementally
  (iterate → compress → write, as the Redis child does) and a partially
  written snapshot is detected and rejected as a whole via the footer.

Both are read incrementally: :class:`AofReader` and :class:`RdbReader`
are fed windows of a stream in order and hold only the record or chunk
a window left unfinished, so a reader needs one read window of memory,
not the whole file.

Layouts (little-endian):

AOF record:   magic u8 (0xA5) | op u8 | klen u32 | vlen u32 | key | val | crc32 u32
RDB header:   b"REPRO-RDB1" | flags u16 | reserved u32
RDB chunk:    magic u8 (0xC7) | n_entries u32 | raw_len u32 | comp_len u32 | blob | crc32 u32
RDB footer:   magic u8 (0xF0) | total_entries u64 | total_chunks u32 | crc32 u32
Chunk blob (decompressed): n_entries × (klen u32 | vlen u32 | key | val)
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from collections.abc import Iterable, MutableMapping

from repro.nvme.copies import _COPIED
from repro.persist.compress import _TALLY, Compressor

__all__ = [
    "OP_SET",
    "OP_DEL",
    "AofRecord",
    "AofCodec",
    "AofReader",
    "AofScanResult",
    "CorruptRecord",
    "CorruptionError",
    "RdbWriter",
    "RdbReader",
]

OP_SET = 1
OP_DEL = 2

#: what the decoders read from, without copying it first
Buffer = bytes | bytearray | memoryview

_AOF_MAGIC = 0xA5
_AOF_HDR = struct.Struct("<BBII")
_CRC = struct.Struct("<I")

_RDB_MAGIC = b"REPRO-RDB1"
_RDB_HDR = struct.Struct("<10sHI")
_CHUNK_MAGIC = 0xC7
_CHUNK_HDR = struct.Struct("<BIII")
_FOOTER_MAGIC = 0xF0
_FOOTER = struct.Struct("<BQII")
_ENTRY_HDR = struct.Struct("<II")


class CorruptRecord(Exception):
    """A record failed structural or CRC validation."""


class CorruptionError(CorruptRecord):
    """Interior corruption: valid records exist *beyond* a bad one.

    A torn tail (crash mid-append) is expected and truncates cleanly;
    a CRC failure with decodable records after it means stored data was
    damaged and silently truncating would drop acknowledged writes.
    ``offset`` is where decoding failed, ``resync_at`` where the next
    valid record was found, ``trailing_records`` how many decode from
    there.
    """

    def __init__(self, offset: int, resync_at: int, trailing_records: int):
        super().__init__(
            f"interior corruption at offset {offset}: {trailing_records} "
            f"valid record(s) resume at offset {resync_at}"
        )
        self.offset = offset
        self.resync_at = resync_at
        self.trailing_records = trailing_records


_crc = zlib.crc32


@dataclass(frozen=True)
class AofScanResult:
    """Outcome of :meth:`AofReader.finish` (and :meth:`AofCodec.scan`).

    ``count`` valid records run from the reader's first offset to
    ``consumed``, the offset one past the last of them;
    ``tail_kind`` is ``"clean"`` (end of data / zero padding),
    ``"torn"`` (crash fragment, safe to truncate) or ``"interior"``
    (valid records resume after the failure — real corruption).
    """

    count: int
    consumed: int
    truncated_at: int | None
    tail_kind: str
    resync_at: int | None
    trailing_records: int


@dataclass(frozen=True)
class AofRecord:
    """One logged write command."""

    op: int
    key: bytes
    value: bytes = b""

    def __post_init__(self) -> None:
        if self.op not in (OP_SET, OP_DEL):
            raise ValueError(f"bad op {self.op}")
        if self.op == OP_DEL and self.value:
            raise ValueError("DEL records carry no value")


class AofCodec:
    """Encode/decode AOF records."""

    @staticmethod
    def encode(record: AofRecord) -> bytes:
        """``record`` framed in one join, its CRC chained over the
        pieces (the value is copied once)."""
        key, value = record.key, record.value
        hdr = _AOF_HDR.pack(_AOF_MAGIC, record.op, len(key), len(value))
        crc = _crc(value, _crc(key, _crc(hdr)))
        data = b"".join((hdr, key, value, _CRC.pack(crc)))
        _COPIED["record_encode"] += len(data)
        return data

    @staticmethod
    def scan(data: Buffer, start: int = 0,
             strict: bool = False) -> AofScanResult:
        """Validate ``data[start:]`` as one window of an
        :class:`AofReader` (offsets stay absolute) and classify its
        tail; see :meth:`AofReader.finish`."""
        reader = AofReader(offset=start)
        reader.feed(memoryview(data)[start:] if start else data)
        return reader.finish(strict)


class AofReader:
    """Incremental AOF walker and replayer.

    Windows of one stream are fed in order, split anywhere (pages, read
    runs, single bytes). Each record is CRC-checked as soon as its last
    byte arrives and, with a ``keyspace``, applied to it at once: a SET
    whose value the keyspace already holds byte for byte keeps the held
    object, so only keys and changed values are copied out. The reader
    keeps only the record the last window left unfinished.

    ``consumed`` is the stream offset one past the last valid record and
    ``count`` how many valid records precede it (from ``offset``, the
    stream offset of the first byte fed). Records stop at the first
    invalid one; what follows it is only classified (see
    :meth:`finish`), never applied. A window may be ``bytes``,
    ``bytearray`` or ``memoryview``; a ``memoryview`` is flattened
    once, since comparing through one goes element by element.
    """

    def __init__(self, keyspace: MutableMapping[bytes, bytes] | None = None,
                 offset: int = 0):
        self.keyspace = keyspace
        self.consumed = offset
        self.count = 0
        self._part = bytearray()  # the record at ``consumed``, unfinished
        self._tail: _Tail | None = None

    def feed(self, window: Buffer) -> None:
        """Walk (and apply) the records ``window`` completes."""
        if type(window) is memoryview:
            window = window.tobytes()
        if self._tail is not None:
            self._tail.feed(window)
            return
        pos = 0
        part = self._part
        if part:
            pos = self._top_up(window)
            stop, bad = self._walk(part, 0)
            if bad:
                self._fail(part + window[pos:])
                return
            if not stop:
                return  # the record continues past this window
            part.clear()
        stop, bad = self._walk(window, pos)
        if bad:
            self._fail(window[stop:])
        else:
            part += window[stop:]

    def reach(self, window: Buffer) -> int:
        """``consumed`` as it would be after feeding ``window``; the
        reader itself does not change."""
        if self._tail is not None:
            return self.consumed
        probe = AofReader(offset=self.consumed)
        probe._part += self._part
        probe.feed(window)
        return probe.consumed

    def finish(self, strict: bool = False) -> AofScanResult:
        """Classify how the stream ended (the recovery verdict).

        ``"clean"``: every byte fed after ``consumed`` is zero (end of
        stream or zero padding). ``"torn"``: a crash fragment with no
        valid record after it, safe to truncate. ``"interior"``: a
        CRC-valid record chain resumes after the failure, so the stored
        stream was damaged and truncating drops acknowledged records;
        ``strict=True`` raises :class:`CorruptionError` with the offsets
        instead.
        """
        tail = self._tail
        if tail is None and self._part:
            tail = self._tail = _Tail(self.consumed)
            tail.feed(self._part)
            self._part = bytearray()
        at, count = self.consumed, self.count
        if tail is None or not tail.nonzero:
            return AofScanResult(count=count, consumed=at, truncated_at=None,
                                 tail_kind="clean", resync_at=None,
                                 trailing_records=0)
        resync_at, trailing = tail.resync()
        if resync_at is None:
            return AofScanResult(count=count, consumed=at, truncated_at=at,
                                 tail_kind="torn", resync_at=None,
                                 trailing_records=0)
        if strict:
            raise CorruptionError(at, resync_at, trailing)
        return AofScanResult(count=count, consumed=at, truncated_at=at,
                             tail_kind="interior", resync_at=resync_at,
                             trailing_records=trailing)

    def _top_up(self, window: bytes | bytearray) -> int:
        """Move into ``_part`` the bytes of ``window`` its record still
        lacks (as far as its header tells); returns how many."""
        part = self._part
        taken = 0
        if len(part) < _AOF_HDR.size:
            taken = _AOF_HDR.size - len(part)
            part += window[:taken]
            if len(part) < _AOF_HDR.size:
                return len(window)
        _, _, klen, vlen = _AOF_HDR.unpack_from(part)
        more = _AOF_HDR.size + klen + vlen + _CRC.size - len(part)
        if more > 0:
            part += window[taken:taken + more]
            taken = min(taken + more, len(window))
        return taken

    def _walk(self, buf: bytes | bytearray, pos: int) -> tuple[int, bool]:
        """Check and apply the whole records of ``buf[pos:]``; returns
        where they stop and whether the record there is invalid (rather
        than unfinished). The CRC runs over a slice of one memoryview;
        only keys and changed values are copied."""
        keyspace = self.keyspace
        n = len(buf)
        start = pos
        count = 0
        bad = False
        with memoryview(buf) as view:
            while pos + _AOF_HDR.size <= n:
                magic, op, klen, vlen = _AOF_HDR.unpack_from(view, pos)
                if magic != _AOF_MAGIC or (op != OP_SET
                                           and (op != OP_DEL or vlen)):
                    bad = True  # nothing encode() writes
                    break
                key_at = pos + _AOF_HDR.size
                value_at = key_at + klen
                crc_at = value_at + vlen
                end = crc_at + _CRC.size
                if end > n:
                    break
                if _CRC.unpack_from(view, crc_at)[0] != _crc(view[pos:crc_at]):
                    bad = True
                    break
                if keyspace is not None:
                    key = bytes(view[key_at:value_at])
                    if op == OP_SET:
                        held = keyspace.get(key)
                        if (held is None or len(held) != vlen
                                or not buf.startswith(held, value_at)):
                            keyspace[key] = bytes(view[value_at:crc_at])
                    else:
                        keyspace.pop(key, None)
                count += 1
                pos = end
        self.consumed += pos - start
        self.count += count
        return pos, bad

    def _fail(self, rest: bytes | bytearray) -> None:
        """The record at ``consumed`` is invalid: from here on the
        stream is only classified."""
        self._part = bytearray()
        self._tail = _Tail(self.consumed)
        self._tail.feed(rest)


class _Tail:
    """What follows the first invalid record of a stream, at ``at``.

    Tracks whether any of it is nonzero and keeps its bytes from the
    first record magic on: no earlier byte can start a record, so zero
    padding is never kept. :meth:`resync` searches what is kept once
    the stream has ended (the invalid record at ``at`` walks to no
    record, so it is never taken for the resync point).
    """

    def __init__(self, at: int):
        self.nonzero = False
        self._buf = bytearray()
        self._base = at  # stream offset of _buf[0]

    def feed(self, window: bytes | bytearray) -> None:
        if not self.nonzero and window.count(0) != len(window):
            self.nonzero = True
        if self._buf:
            self._buf += window
            return
        q = window.find(_AOF_MAGIC)
        if q < 0:
            self._base += len(window)
        else:
            self._base += q
            self._buf += window[q:]

    def resync(self) -> tuple[int | None, int]:
        """``(offset of the first CRC-valid record, valid records from
        it)`` of the whole tail, or ``(None, 0)``; call once the last
        window is fed."""
        buf = self._buf
        q = 0
        while (q := buf.find(_AOF_MAGIC, q)) >= 0:
            chain = AofReader()
            chain._walk(buf, q)
            if chain.count:
                return self._base + q, chain.count
            q += 1
        return None, 0


class RdbWriter:
    """Incremental snapshot encoder: header, chunks, footer.

    With an ``owner``, every chunk's batch the memo holds, hit or miss,
    is counted in that owner's generation being written
    (:meth:`Compressor.hold <repro.persist.compress.Compressor.hold>`);
    publishing or discarding it is the caller's.
    """

    def __init__(self, compressor: Compressor | None = None,
                 owner: object = None):
        self.compressor = compressor or Compressor()
        self.owner = owner
        self._entries = 0
        self._chunks = 0
        self._finished = False
        self._header_emitted = False

    def header(self) -> bytes:
        if self._header_emitted:
            raise RuntimeError("header already emitted")
        self._header_emitted = True
        return _RDB_HDR.pack(_RDB_MAGIC, 1, 0)

    def chunk(self, entries: Iterable[tuple[bytes, bytes]]) -> bytes:
        """Encode one batch of (key, value) pairs.

        The blob comes from the compressor's shared chunk memo when an
        equal batch a live generation holds was deflated before; a
        batch that cannot be a dict key (a ``bytearray`` in it) skips
        the memo.
        """
        if not self._header_emitted:
            raise RuntimeError("emit header first")
        if self._finished:
            raise RuntimeError("writer finished")
        batch = tuple(entries)
        memo = self.compressor.chunk_memo
        try:
            hit = memo.get(batch)
        except TypeError:
            hit = memo = None
        if hit is None:
            parts = []
            for key, value in batch:
                parts.append(_ENTRY_HDR.pack(len(key), len(value)))
                parts.append(key)
                parts.append(value)
            raw = b"".join(parts)
            raw_len = len(raw)
            blob = self.compressor.compress(raw)
            if memo is not None:
                memo.store(batch, (raw_len, blob), len(blob))
        else:
            raw_len, blob = hit
            _TALLY["writer_hits"] += 1
        if memo is not None and self.owner is not None:
            self.compressor.hold(self.owner, batch)
        count = len(batch)
        hdr = _CHUNK_HDR.pack(_CHUNK_MAGIC, count, raw_len, len(blob))
        self._entries += count
        self._chunks += 1
        crc = _crc(blob, _crc(hdr))
        data = b"".join((hdr, blob, _CRC.pack(crc)))
        _COPIED["record_encode"] += len(data)
        return data

    def footer(self) -> bytes:
        if self._finished:
            raise RuntimeError("footer already emitted")
        self._finished = True
        body = _FOOTER.pack(_FOOTER_MAGIC, self._entries, self._chunks, 0)[: -_CRC.size]
        return body + _CRC.pack(_crc(body))

    @property
    def entries_written(self) -> int:
        return self._entries


class RdbReader:
    """Incremental validating snapshot decoder.

    Windows of one RDB stream are fed in order, split anywhere; each
    :meth:`feed` returns the entries of the chunks it completes and the
    reader keeps only the chunk the last window left unfinished.
    Structural damage (a bad magic or CRC, a blob that is not the zlib
    stream its header declares, footer counts that disagree) stops the
    decoding; :meth:`finish` raises it as :class:`CorruptRecord`, or
    reports a stream that ended before its footer. Bytes after the
    footer are ignored.

    A CRC-valid chunk whose blob is byte-equal to one in the
    compressor's chunk memo, with the header's entry count and raw
    length, is the memo's batch: zlib is a pure function, so that blob
    inflates to the batch's encoding. Every other blob is inflated,
    bounded by its declared length, and decoded.
    """

    def __init__(self, compressor: Compressor | None = None):
        self.compressor = compressor or Compressor()
        #: entries and chunks decoded so far
        self.entries = 0
        self.chunks = 0
        #: key + value bytes of those entries (each chunk's raw length
        #: less its entry headers)
        self.raw_bytes = 0
        self._offset = 0  # stream offset of the first byte not decoded
        self._part = bytearray()  # the unit at _offset, unfinished
        self._header_seen = False
        self._done = False
        self._error: CorruptRecord | None = None

    def feed(self, window: Buffer) -> list[tuple[bytes, bytes]]:
        """Decode what ``window`` completes; returns its entries."""
        out: list[tuple[bytes, bytes]] = []
        if self._done or self._error is not None:
            return out
        pos = 0
        part = self._part
        try:
            if part:
                pos = self._top_up(window)
                if len(part) < self._unit(part, 0, len(part)):
                    return out  # the unit continues past this window
                with memoryview(part) as view:
                    self._decode(view, 0, out)
                part.clear()
            with memoryview(window) as view:
                n = len(view)
                while pos < n and not self._done:
                    end = pos + self._unit(view, pos, n)
                    if end > n:
                        break
                    pos = self._decode(view, pos, out)
                if not self._done:
                    part += view[pos:]
        except CorruptRecord as exc:
            self._error = exc
            self._part = bytearray()
        return out

    def finish(self) -> None:
        """Raise :class:`CorruptRecord` unless the stream fed so far is
        a complete, valid snapshot."""
        if self._error is not None:
            raise self._error
        if self._done:
            return
        part = self._part
        if not self._header_seen:
            raise CorruptRecord("truncated header")
        if not part:
            raise CorruptRecord("snapshot ended before footer")
        if part[0] == _FOOTER_MAGIC:
            raise CorruptRecord("truncated footer")
        if len(part) < _CHUNK_HDR.size:
            raise CorruptRecord("truncated chunk header")
        raise CorruptRecord("truncated chunk body")

    def _top_up(self, window: Buffer) -> int:
        """Move into ``_part`` the bytes of ``window`` its unit still
        lacks, as far as the bytes so far tell its length; returns
        how many."""
        part = self._part
        taken = 0
        with memoryview(window) as view:
            while True:
                more = self._unit(part, 0, len(part)) - len(part)
                if more <= 0 or taken == len(view):
                    return taken
                part += view[taken:taken + more]
                taken = min(taken + more, len(view))

    def _unit(self, data: Buffer, pos: int, n: int) -> int:
        """Length of the unit (header, chunk or footer) at ``pos``, or
        of as much of it as decides the rest, given ``data[pos:n]``."""
        if not self._header_seen:
            return _RDB_HDR.size
        if pos >= n:
            return 1
        magic = data[pos]
        if magic == _FOOTER_MAGIC:
            return _FOOTER.size
        if magic != _CHUNK_MAGIC:
            raise CorruptRecord(
                f"bad chunk magic {magic:#x} at {self._offset}")
        if pos + _CHUNK_HDR.size > n:
            return _CHUNK_HDR.size
        comp_len = _CHUNK_HDR.unpack_from(data, pos)[3]
        return _CHUNK_HDR.size + comp_len + _CRC.size

    def _decode(self, data: Buffer, pos: int,
                out: list[tuple[bytes, bytes]]) -> int:
        """Decode the whole unit at ``pos``; returns its end."""
        at = self._offset
        if not self._header_seen:
            magic, flags, _ = _RDB_HDR.unpack_from(data, pos)
            if magic != _RDB_MAGIC:
                raise CorruptRecord("bad RDB magic")
            if not flags & 1:
                raise CorruptRecord("compression flag mismatch")
            self._header_seen = True
            end = pos + _RDB_HDR.size
        elif data[pos] == _FOOTER_MAGIC:
            _, total_entries, total_chunks, _ = _FOOTER.unpack_from(data, pos)
            crc_at = pos + _FOOTER.size - _CRC.size
            if _CRC.unpack_from(data, crc_at)[0] != _crc(data[pos:crc_at]):
                raise CorruptRecord("footer CRC mismatch")
            if total_entries != self.entries or total_chunks != self.chunks:
                raise CorruptRecord(
                    f"footer counts ({total_entries}/{total_chunks}) != "
                    f"observed ({self.entries}/{self.chunks})"
                )
            self._done = True
            end = pos + _FOOTER.size
        else:
            _, count, raw_len, comp_len = _CHUNK_HDR.unpack_from(data, pos)
            crc_at = pos + _CHUNK_HDR.size + comp_len
            if _CRC.unpack_from(data, crc_at)[0] != _crc(data[pos:crc_at]):
                raise CorruptRecord(f"chunk CRC mismatch at {at}")
            blob = data[pos + _CHUNK_HDR.size:crc_at]
            hit = self.compressor.chunk_memo.by_blob.get(bytes(blob))
            if (hit is not None and hit[0] == raw_len
                    and len(hit[1]) == count):
                out.extend(hit[1])
                _TALLY["reader_hits"] += 1
            else:
                try:
                    raw = self.compressor.decompress(blob, raw_len)
                except zlib.error as exc:
                    raise CorruptRecord(f"chunk blob at {at}: {exc}") from exc
                if len(raw) != raw_len:
                    raise CorruptRecord("decompressed length mismatch")
                out.extend(self._decode_entries(raw, count))
            self.entries += count
            self.chunks += 1
            self.raw_bytes += raw_len - count * _ENTRY_HDR.size
            end = crc_at + _CRC.size
        self._offset += end - pos
        return end

    @staticmethod
    def _decode_entries(raw: bytes, count: int) -> list[tuple[bytes, bytes]]:
        out = []
        pos = 0
        for _ in range(count):
            if pos + _ENTRY_HDR.size > len(raw):
                raise CorruptRecord("truncated entry header")
            klen, vlen = _ENTRY_HDR.unpack_from(raw, pos)
            pos += _ENTRY_HDR.size
            if pos + klen + vlen > len(raw):
                raise CorruptRecord("truncated entry body")
            out.append((raw[pos : pos + klen], raw[pos + klen : pos + klen + vlen]))
            pos += klen + vlen
        if pos != len(raw):
            raise CorruptRecord("trailing bytes in chunk")
        return out
