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
from collections.abc import Iterable, Iterator

from repro.persist.compress import Compressor

__all__ = [
    "OP_SET",
    "OP_DEL",
    "AofRecord",
    "AofCodec",
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
    """Outcome of :meth:`AofCodec.scan`.

    ``count`` valid records run from the scan's ``start`` to
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
        hdr = _AOF_HDR.pack(_AOF_MAGIC, record.op, len(record.key),
                            len(record.value))
        body = hdr + record.key + record.value
        return body + _CRC.pack(_crc(body))

    @staticmethod
    def decode_stream(data: Buffer) -> Iterator[AofRecord]:
        """Yield records until the stream ends or turns invalid.

        A torn tail (crash mid-append) terminates iteration silently —
        exactly Redis's ``aof-load-truncated`` behaviour. This decoder
        cannot tell a torn tail from a corrupt *interior*; use
        :meth:`scan` when that distinction matters (recovery does).
        """
        for op, key, value in AofCodec.items(data):
            yield AofRecord(op=op, key=key, value=value)

    @staticmethod
    def items(data: Buffer, start: int = 0,
              end: int | None = None) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for each record in ``data[start:end]``.

        The range must be one :meth:`walk` or :meth:`scan` validated;
        it is not checked again. ``end=None`` walks from ``start``
        first. Key and value are the only bytes copied out.
        """
        view = memoryview(data)
        if end is None:
            end, _ = AofCodec._walk(view, start, len(view))
        pos = start
        while pos < end:
            _, op, klen, vlen = _AOF_HDR.unpack_from(view, pos)
            key_at = pos + _AOF_HDR.size
            value_at = key_at + klen
            pos = value_at + vlen
            yield op, bytes(view[key_at:value_at]), bytes(view[value_at:pos])
            pos += _CRC.size

    @staticmethod
    def replay(data: Buffer, keyspace: dict[bytes, bytes], start: int = 0,
               end: int | None = None) -> None:
        """Apply the SETs and DELs of ``data[start:end]`` to ``keyspace``
        (a range validated as for :meth:`items`).

        A SET whose value the keyspace already holds byte for byte
        keeps the held object: only keys and changed values are copied
        out. The comparison runs in place on ``bytes``/``bytearray``; a
        ``memoryview`` is flattened once first, since comparing through
        one goes element by element.
        """
        flat = data.tobytes() if isinstance(data, memoryview) else data
        held_value = keyspace.get
        with memoryview(flat) as view:
            if end is None:
                end, _ = AofCodec._walk(view, start, len(view))
            pos = start
            while pos < end:
                _, op, klen, vlen = _AOF_HDR.unpack_from(view, pos)
                key_at = pos + _AOF_HDR.size
                value_at = key_at + klen
                pos = value_at + vlen
                key = bytes(view[key_at:value_at])
                if op == OP_SET:
                    held = held_value(key)
                    if (held is None or len(held) != vlen
                            or not flat.startswith(held, value_at)):
                        keyspace[key] = bytes(view[value_at:pos])
                else:
                    keyspace.pop(key, None)
                pos += _CRC.size

    @staticmethod
    def walk(data: Buffer, start: int = 0) -> tuple[int, int]:
        """``(consumed, count)`` of the run of valid records from
        ``start``: headers, magic and CRCs are checked and no record is
        built. Offsets stay absolute, so the WAL adopts pages by
        resuming at the previous ``consumed``; ``data`` may be a
        ``bytearray`` its caller resizes next.
        """
        with memoryview(data) as view:
            return AofCodec._walk(view, start, len(view))

    @staticmethod
    def _walk(view: memoryview, pos: int, n: int) -> tuple[int, int]:
        count = 0
        record_end = AofCodec._record_end
        while pos + _AOF_HDR.size <= n:
            end = record_end(view, pos, n)
            if end == pos:
                break
            count += 1
            pos = end
        return pos, count

    @staticmethod
    def _record_end(view: memoryview, pos: int, n: int) -> int:
        """End of the valid record at ``pos``; ``pos`` if invalid/torn.

        ``view`` is one memoryview over the whole stream, taken by the
        caller: the CRC runs over a slice of it, nothing is copied.
        """
        magic, op, klen, vlen = _AOF_HDR.unpack_from(view, pos)
        if (magic != _AOF_MAGIC or op not in (OP_SET, OP_DEL)
                or (op == OP_DEL and vlen)):
            return pos  # nothing encode() writes
        crc_at = pos + _AOF_HDR.size + klen + vlen
        end = crc_at + _CRC.size
        if end > n:
            return pos  # torn record
        (crc,) = _CRC.unpack_from(view, crc_at)
        return end if crc == _crc(view[pos:crc_at]) else pos

    @staticmethod
    def scan(data: Buffer, start: int = 0,
             strict: bool = False) -> AofScanResult:
        """Validate with tail classification (the recovery entry point).

        Unlike :meth:`walk`, a decode failure is diagnosed: if
        everything after the failure offset is zero padding or torn
        fragments with no later valid record, the tail is a crash
        artifact ("torn") and truncation is correct. If a CRC-valid
        record chain *resumes* after the failure, the interior of the
        stream was corrupted ("interior") — truncation would silently
        drop acknowledged records, so ``strict=True`` raises
        :class:`CorruptionError` with the offset instead. No record is
        built: :meth:`items` decodes ``data[start:consumed]``.

        ``start`` resumes a previous scan (offsets stay absolute).
        """
        view = memoryview(data)
        n = len(view)
        pos, count = AofCodec._walk(view, start, n)
        clean = pos >= n
        if not clean:
            # bytes and bytearray count and search in place; a
            # memoryview can do neither and pays a copy, only here
            flat = view.tobytes() if isinstance(data, memoryview) else data
            clean = flat.count(0, pos) == n - pos
        if clean:
            # end of stream or pure zero padding: a clean tail
            return AofScanResult(count=count, consumed=pos,
                                 truncated_at=None, tail_kind="clean",
                                 resync_at=None, trailing_records=0)
        resync_at, trailing = AofCodec._resync(flat, view, pos, n)
        if resync_at is None:
            return AofScanResult(count=count, consumed=pos,
                                 truncated_at=pos, tail_kind="torn",
                                 resync_at=None, trailing_records=0)
        if strict:
            raise CorruptionError(pos, resync_at, trailing)
        return AofScanResult(count=count, consumed=pos,
                             truncated_at=pos, tail_kind="interior",
                             resync_at=resync_at, trailing_records=trailing)

    @staticmethod
    def _resync(flat: bytes | bytearray, view: memoryview, pos: int,
                n: int) -> tuple[int | None, int]:
        """Find the next CRC-valid record after a decode failure."""
        q = pos + 1
        min_size = _AOF_HDR.size + _CRC.size
        while q + min_size <= n:
            q = flat.find(_AOF_MAGIC, q, n - min_size + 1)
            if q < 0:
                return None, 0
            end = AofCodec._record_end(view, q, n)
            if end != q:
                _, trailing = AofCodec._walk(view, end, n)
                return q, 1 + trailing
            q += 1
        return None, 0


class RdbWriter:
    """Incremental snapshot encoder: header, chunks, footer."""

    def __init__(self, compressor: Compressor | None = None):
        self.compressor = compressor or Compressor()
        self._entries = 0
        self._chunks = 0
        self._finished = False
        self._header_emitted = False

    def header(self) -> bytes:
        if self._header_emitted:
            raise RuntimeError("header already emitted")
        self._header_emitted = True
        return _RDB_HDR.pack(_RDB_MAGIC, 1 if self.compressor.enabled else 0, 0)

    def chunk(self, entries: Iterable[tuple[bytes, bytes]]) -> bytes:
        """Encode one batch of (key, value) pairs.

        The blob comes from the compressor's shared chunk memo when an
        equal batch was deflated before at the same level; a batch that
        cannot be a dict key (a ``bytearray`` in it) skips the memo.
        """
        if not self._header_emitted:
            raise RuntimeError("emit header first")
        if self._finished:
            raise RuntimeError("writer finished")
        batch = tuple(entries)
        memo = self.compressor.chunk_memo
        hit = None
        if memo is not None:
            try:
                hit = memo.get(batch)
            except TypeError:
                memo = None
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
        count = len(batch)
        hdr = _CHUNK_HDR.pack(_CHUNK_MAGIC, count, raw_len, len(blob))
        self._entries += count
        self._chunks += 1
        crc = _crc(blob, _crc(hdr))
        return b"".join((hdr, blob, _CRC.pack(crc)))

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
    """Validating snapshot decoder."""

    def __init__(self, compressor: Compressor | None = None):
        self.compressor = compressor or Compressor()

    def read_all(self, data: Buffer) -> list[tuple[bytes, bytes]]:
        """Decode a complete snapshot; raises :class:`CorruptRecord` on
        any structural damage (truncation, bad CRC, a blob that is not
        the zlib stream its header declares, missing footer).

        A CRC-valid chunk whose blob is byte-equal to one in the
        compressor's chunk memo, with the header's entry count and raw
        length, is the memo's batch: zlib is a pure function, so that
        blob inflates to the batch's encoding. Every other blob is
        inflated, bounded by its declared length, and decoded.
        """
        chunk_memo = self.compressor.chunk_memo
        memo = chunk_memo.by_blob if chunk_memo is not None else None
        out: list[tuple[bytes, bytes]] = []
        view = memoryview(data)
        pos = self._check_header(view)
        entries = 0
        chunks = 0
        n = len(view)
        while True:
            if pos >= n:
                raise CorruptRecord("snapshot ended before footer")
            magic = view[pos]
            if magic == _FOOTER_MAGIC:
                self._check_footer(view, pos, entries, chunks)
                return out
            if magic != _CHUNK_MAGIC:
                raise CorruptRecord(f"bad chunk magic {magic:#x} at {pos}")
            if pos + _CHUNK_HDR.size > n:
                raise CorruptRecord("truncated chunk header")
            _, count, raw_len, comp_len = _CHUNK_HDR.unpack_from(view, pos)
            crc_at = pos + _CHUNK_HDR.size + comp_len
            end = crc_at + _CRC.size
            if end > n:
                raise CorruptRecord("truncated chunk body")
            (crc,) = _CRC.unpack_from(view, crc_at)
            if crc != _crc(view[pos:crc_at]):
                raise CorruptRecord(f"chunk CRC mismatch at {pos}")
            blob = view[pos + _CHUNK_HDR.size:crc_at]
            hit = memo.get(bytes(blob)) if memo is not None else None
            if (hit is not None and hit[0] == raw_len
                    and len(hit[1]) == count):
                out.extend(hit[1])
            else:
                try:
                    raw = self.compressor.decompress(blob, raw_len)
                except zlib.error as exc:
                    raise CorruptRecord(
                        f"chunk blob at {pos}: {exc}") from exc
                if len(raw) != raw_len:
                    raise CorruptRecord("decompressed length mismatch")
                out.extend(self._decode_entries(raw, count))
            entries += count
            chunks += 1
            pos = end

    def _check_header(self, data: memoryview) -> int:
        if len(data) < _RDB_HDR.size:
            raise CorruptRecord("truncated header")
        magic, flags, _ = _RDB_HDR.unpack_from(data, 0)
        if magic != _RDB_MAGIC:
            raise CorruptRecord("bad RDB magic")
        compressed = bool(flags & 1)
        if compressed != self.compressor.enabled:
            raise CorruptRecord("compression flag mismatch")
        return _RDB_HDR.size

    def _check_footer(self, data: memoryview, pos: int, entries: int,
                      chunks: int) -> None:
        if pos + _FOOTER.size > len(data):
            raise CorruptRecord("truncated footer")
        magic, total_entries, total_chunks, _pad = _FOOTER.unpack_from(data, pos)
        body = data[pos : pos + _FOOTER.size - _CRC.size]
        (crc,) = _CRC.unpack_from(data, pos + _FOOTER.size - _CRC.size)
        if crc != _crc(body):
            raise CorruptRecord("footer CRC mismatch")
        if total_entries != entries or total_chunks != chunks:
            raise CorruptRecord(
                f"footer counts ({total_entries}/{total_chunks}) != "
                f"observed ({entries}/{chunks})"
            )

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
