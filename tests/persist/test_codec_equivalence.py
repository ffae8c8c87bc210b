"""Reference twins for the streaming codecs.

``repro.persist.encoding`` decodes incrementally: :class:`AofReader`
walks and replays a log and :class:`RdbReader` decodes a snapshot from
windows fed in order, split anywhere, keeping only the record or chunk
a window left unfinished. Two generations of what they replaced are
kept here as the reference:

* the one-buffer codecs (``OneBufferAof.scan`` + ``replay`` and
  ``OneBufferRdbReader.read_all``): the same walk, resync, in-place
  replay and chunk memo, over the whole stream as one buffer;
* the per-copy, record-building, always-inflating codecs before them
  (``RefAofCodec``, ``RefRdbWriter``, ``RefRdbReader``).

On any stream — valid, truncated at every offset, one byte flipped,
zero padded, torn and then resumed, corrupt inside, hostile — and
however it is cut into windows (mid-header, mid-CRC, mid-blob, one byte
at a time, as ``bytes``, ``bytearray`` or ``memoryview``), the readers
must report what the references do: the same writer bytes, records,
entries and replayed keyspace (a held value's identity included), the
same ``consumed``, ``count``, tail kind and ``trailing_records``, and
the same exception type and message, with the reader's memo warm or
cold.

The one intended divergence from the per-copy reference is the bugfix
that rode with the copy-free codecs: a CRC-valid chunk whose blob zlib
rejects escaped it as ``zlib.error``; the readers report it as
:class:`CorruptRecord`.
"""

import random
import struct
import zlib
from dataclasses import dataclass

import pytest

from hypothesis import given, settings, strategies as st

from repro.persist import (
    AofCodec,
    AofReader,
    AofRecord,
    AofScanResult,
    CorruptRecord,
    CorruptionError,
    OP_DEL,
    OP_SET,
    RdbReader,
    RdbWriter,
)
from repro.persist.compress import Compressor, _Memo
from repro.persist.encoding import (
    _AOF_HDR,
    _AOF_MAGIC,
    _CHUNK_HDR,
    _CHUNK_MAGIC,
    _CRC,
    _ENTRY_HDR,
    _FOOTER,
    _FOOTER_MAGIC,
    _RDB_HDR,
    _RDB_MAGIC,
    _crc,
)

from tests.persist.records import RecordLog


# --- the one-buffer codecs the incremental readers replaced -----------


class OneBufferAof:
    """``AofCodec.scan``/``walk``/``replay`` as they were: one buffer."""

    @staticmethod
    def scan(data, start=0, strict=False):
        view = memoryview(data)
        n = len(view)
        pos, count = OneBufferAof._walk(view, start, n)
        clean = pos >= n
        if not clean:
            flat = view.tobytes() if isinstance(data, memoryview) else data
            clean = flat.count(0, pos) == n - pos
        if clean:
            return AofScanResult(count=count, consumed=pos,
                                 truncated_at=None, tail_kind="clean",
                                 resync_at=None, trailing_records=0)
        resync_at, trailing = OneBufferAof._resync(flat, view, pos, n)
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
    def replay(data, keyspace, start, end):
        flat = data.tobytes() if isinstance(data, memoryview) else data
        held_value = keyspace.get
        with memoryview(flat) as view:
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
    def _walk(view, pos, n):
        count = 0
        while pos + _AOF_HDR.size <= n:
            end = OneBufferAof._record_end(view, pos, n)
            if end == pos:
                break
            count += 1
            pos = end
        return pos, count

    @staticmethod
    def _record_end(view, pos, n):
        magic, op, klen, vlen = _AOF_HDR.unpack_from(view, pos)
        if (magic != _AOF_MAGIC or op not in (OP_SET, OP_DEL)
                or (op == OP_DEL and vlen)):
            return pos
        crc_at = pos + _AOF_HDR.size + klen + vlen
        end = crc_at + _CRC.size
        if end > n:
            return pos
        (crc,) = _CRC.unpack_from(view, crc_at)
        return end if crc == _crc(view[pos:crc_at]) else pos

    @staticmethod
    def _resync(flat, view, pos, n):
        q = pos + 1
        min_size = _AOF_HDR.size + _CRC.size
        while q + min_size <= n:
            q = flat.find(_AOF_MAGIC, q, n - min_size + 1)
            if q < 0:
                return None, 0
            end = OneBufferAof._record_end(view, q, n)
            if end != q:
                _, trailing = OneBufferAof._walk(view, end, n)
                return q, 1 + trailing
            q += 1
        return None, 0


class OneBufferRdbReader(RdbReader):
    """``RdbReader.read_all`` as it was: the memo, over one buffer."""

    def read_all(self, data):
        memo = self.compressor.chunk_memo.by_blob
        out = []
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
            hit = memo.get(bytes(blob))
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

    def _check_header(self, data):
        if len(data) < _RDB_HDR.size:
            raise CorruptRecord("truncated header")
        magic, flags, _ = _RDB_HDR.unpack_from(data, 0)
        if magic != _RDB_MAGIC:
            raise CorruptRecord("bad RDB magic")
        if not flags & 1:
            raise CorruptRecord("compression flag mismatch")
        return _RDB_HDR.size

    def _check_footer(self, data, pos, entries, chunks):
        if pos + _FOOTER.size > len(data):
            raise CorruptRecord("truncated footer")
        _, total_entries, total_chunks, _pad = _FOOTER.unpack_from(data, pos)
        body = data[pos : pos + _FOOTER.size - _CRC.size]
        (crc,) = _CRC.unpack_from(data, pos + _FOOTER.size - _CRC.size)
        if crc != _crc(body):
            raise CorruptRecord("footer CRC mismatch")
        if total_entries != entries or total_chunks != chunks:
            raise CorruptRecord(
                f"footer counts ({total_entries}/{total_chunks}) != "
                f"observed ({entries}/{chunks})"
            )


# --- the per-copy reference before them ---------------------------------


class PlainZlib:
    """What ``Compressor`` was to the reference codecs: zlib, no memo,
    the declared length ignored; ``level`` writes what another zlib
    writer would."""

    def __init__(self, level=1):
        self.level = level

    def compress(self, raw):
        return zlib.compress(raw, self.level)

    def decompress(self, blob, raw_len=None):
        return zlib.decompress(blob)


@dataclass(frozen=True)
class RefScanResult:
    """What ``AofCodec.scan`` returned when it built the records."""

    records: list[AofRecord]
    consumed: int
    truncated_at: int | None
    tail_kind: str
    resync_at: int | None
    trailing_records: int


class RefAofCodec:
    @staticmethod
    def decode_stream(data):
        pos = 0
        n = len(data)
        while pos + _AOF_HDR.size <= n:
            record, end = RefAofCodec._decode_one(data, pos, n)
            if record is None:
                return
            yield record
            pos = end

    @staticmethod
    def _decode_one(data, pos, n):
        magic, op, klen, vlen = _AOF_HDR.unpack_from(data, pos)
        if magic != _AOF_MAGIC or op not in (OP_SET, OP_DEL):
            return None, pos
        end = pos + _AOF_HDR.size + klen + vlen + _CRC.size
        if end > n:
            return None, pos  # torn record
        body = data[pos : end - _CRC.size]
        (crc,) = _CRC.unpack_from(data, end - _CRC.size)
        if crc != _crc(body):
            return None, pos
        key = body[_AOF_HDR.size : _AOF_HDR.size + klen]
        value = body[_AOF_HDR.size + klen :]
        return AofRecord(op=op, key=bytes(key), value=bytes(value)), end

    @staticmethod
    def scan(data, start=0, strict=False):
        records = []
        pos = start
        n = len(data)
        while pos + _AOF_HDR.size <= n:
            record, end = RefAofCodec._decode_one(data, pos, n)
            if record is None:
                break
            records.append(record)
            pos = end
        if pos >= n or not any(data[pos:]):
            # end of stream or pure zero padding: a clean tail
            return RefScanResult(records=records, consumed=pos,
                                 truncated_at=None, tail_kind="clean",
                                 resync_at=None, trailing_records=0)
        resync_at, trailing = RefAofCodec._resync(data, pos, n)
        if resync_at is None:
            return RefScanResult(records=records, consumed=pos,
                                 truncated_at=pos, tail_kind="torn",
                                 resync_at=None, trailing_records=0)
        if strict:
            raise CorruptionError(pos, resync_at, trailing)
        return RefScanResult(records=records, consumed=pos,
                             truncated_at=pos, tail_kind="interior",
                             resync_at=resync_at, trailing_records=trailing)

    @staticmethod
    def _resync(data, pos, n):
        q = pos + 1
        min_size = _AOF_HDR.size + _CRC.size
        while q + min_size <= n:
            q = data.find(_AOF_MAGIC, q, n - min_size + 1)
            if q < 0:
                return None, 0
            record, end = RefAofCodec._decode_one(data, q, n)
            if record is not None:
                count = 1
                while end + _AOF_HDR.size <= n:
                    record, nxt = RefAofCodec._decode_one(data, end, n)
                    if record is None:
                        break
                    count += 1
                    end = nxt
                return q, count
            q += 1
        return None, 0


class RefRdbWriter(RdbWriter):
    def chunk(self, entries):
        if not self._header_emitted:
            raise RuntimeError("emit header first")
        if self._finished:
            raise RuntimeError("writer finished")
        parts = []
        count = 0
        for key, value in entries:
            parts.append(_ENTRY_HDR.pack(len(key), len(value)))
            parts.append(key)
            parts.append(value)
            count += 1
        raw = b"".join(parts)
        blob = self.compressor.compress(raw)
        hdr = _CHUNK_HDR.pack(_CHUNK_MAGIC, count, len(raw), len(blob))
        body = hdr + blob
        self._entries += count
        self._chunks += 1
        return body + _CRC.pack(_crc(body))


class RefRdbReader(OneBufferRdbReader):
    def read_all(self, data):
        out = []
        pos = self._check_header(data)
        entries = 0
        chunks = 0
        n = len(data)
        while True:
            if pos >= n:
                raise CorruptRecord("snapshot ended before footer")
            magic = data[pos]
            if magic == _FOOTER_MAGIC:
                self._check_footer(data, pos, entries, chunks)
                return out
            if magic != _CHUNK_MAGIC:
                raise CorruptRecord(f"bad chunk magic {magic:#x} at {pos}")
            if pos + _CHUNK_HDR.size > n:
                raise CorruptRecord("truncated chunk header")
            _, count, raw_len, comp_len = _CHUNK_HDR.unpack_from(data, pos)
            end = pos + _CHUNK_HDR.size + comp_len + _CRC.size
            if end > n:
                raise CorruptRecord("truncated chunk body")
            body = data[pos : end - _CRC.size]
            (crc,) = _CRC.unpack_from(data, end - _CRC.size)
            if crc != _crc(body):
                raise CorruptRecord(f"chunk CRC mismatch at {pos}")
            blob = body[_CHUNK_HDR.size :]
            raw = self.compressor.decompress(bytes(blob), raw_len)
            if len(raw) != raw_len:
                raise CorruptRecord("decompressed length mismatch")
            out.extend(self._decode_entries(raw, count))
            entries += count
            chunks += 1
            pos = end


# --- windows ----------------------------------------------------------

FORMS = (bytes, bytearray, memoryview)


def split(data: bytes, cuts, form_at: int = 0) -> list:
    """``data`` cut at ``cuts`` (stream offsets, any order; a repeated
    cut gives an empty window), window ``i`` in form
    ``FORMS[(form_at + i) % 3]``."""
    bounds = [0, *sorted(c for c in cuts if 0 <= c <= len(data)), len(data)]
    return [FORMS[(form_at + i) % 3](data[a:b])
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def splittings(data: bytes) -> list[list]:
    """The fixed cuts the legacy cases run: the whole stream in each
    form, and 5-byte windows."""
    return ([[form(data)] for form in FORMS]
            + [split(data, range(5, len(data), 5))])


# --- comparing them ---------------------------------------------------


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("raised", type, details)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except CorruptionError as exc:
        return ("raised", CorruptionError,
                (exc.offset, exc.resync_at, exc.trailing_records))
    except Exception as exc:  # the type is what is being compared
        return ("raised", type(exc), None)


def replayed(records) -> dict:
    keyspace = {}
    for r in records:
        if r.op == OP_SET:
            keyspace[r.key] = r.value
        else:
            keyspace.pop(r.key, None)
    return keyspace


def ref_scan(stream, start, strict):
    scan = RefAofCodec.scan(stream, start, strict)
    return (scan.consumed, scan.truncated_at, scan.tail_kind,
            scan.resync_at, scan.trailing_records, scan.records,
            replayed(scan.records))


def stream_scan(windows, start, strict):
    """The same verdict from readers fed ``windows`` (the stream from
    ``start``): the records one logs, the keyspace another replays."""
    log = RecordLog()
    logged = AofReader(log, offset=start)
    keyspace = {}
    replaying = AofReader(keyspace, offset=start)
    for window in windows:
        logged.feed(window)
        replaying.feed(window)
    scan = replaying.finish(strict)
    assert logged.finish(strict) == scan
    assert scan.count == len(log.records)
    return (scan.consumed, scan.truncated_at, scan.tail_kind,
            scan.resync_at, scan.trailing_records, log.records, keyspace)


def assert_aof_equivalent(stream: bytes, start: int = 0) -> None:
    for strict in (False, True):
        want = outcome(ref_scan, stream, start, strict)
        for windows in splittings(stream[start:]):
            got = outcome(stream_scan, windows, start, strict)
            assert got == want, ([type(w).__name__ for w in windows], strict)
        for form in FORMS:
            got = outcome(AofCodec.scan, form(stream), start, strict)
            if got[0] == "ok":
                scan = got[1]
                got = ("ok", (scan.consumed, scan.truncated_at,
                              scan.tail_kind, scan.resync_at,
                              scan.trailing_records))
                assert scan.count == len(want[1][5])
                want_scan = ("ok", want[1][:5])
            else:
                want_scan = want
            assert got == want_scan, form.__name__


def cold() -> Compressor:
    """A codec whose chunk memo holds nothing, whatever else is alive."""
    codec = Compressor()
    codec.chunk_memo = _Memo()
    return codec


def stream_rdb(codec, windows):
    """The entries a reader decodes from ``windows``, then
    :meth:`RdbReader.finish`."""
    reader = RdbReader(codec)
    entries = []
    for window in windows:
        entries += reader.feed(window)
    reader.finish()
    assert reader.entries == len(entries)
    assert reader.raw_bytes == sum(len(k) + len(v) for k, v in entries)
    return entries


def message_outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return ("raised", type(exc), str(exc))


def read_outcome(codec, windows):
    return message_outcome(stream_rdb, codec, windows)


def assert_rdb_equivalent(stream: bytes, *warm: Compressor) -> None:
    """Every reader decodes ``stream`` as the always-inflating reference
    does: the codec as the process has it, one whose memo is cold, and
    the ``warm`` codecs that wrote the stream's blobs. The memo and
    inflate paths must also raise the same message."""
    want = outcome(RefRdbReader(PlainZlib()).read_all, stream)
    if want[:2] == ("raised", zlib.error):
        want = ("raised", CorruptRecord, None)  # the bugfix, see above
    codecs = [Compressor(), *warm, cold()]
    messages = set()
    for i, codec in enumerate(codecs):
        one_buffer = message_outcome(OneBufferRdbReader(codec).read_all,
                                     stream)
        for windows in splittings(stream):
            got = read_outcome(codec, windows)
            assert got[:2] == want[:2], (i, len(windows))
            assert got == one_buffer, (i, len(windows))
            if got[0] == "ok":
                assert got == want, (i, len(windows))
            else:
                messages.add(got[2])
    assert len(messages) <= 1, messages


keys = st.binary(min_size=0, max_size=12)
values = st.binary(min_size=0, max_size=40)
records = st.lists(
    st.one_of(
        st.builds(AofRecord, op=st.just(OP_SET), key=keys, value=values),
        st.builds(AofRecord, op=st.just(OP_DEL), key=keys),
    ),
    max_size=5,
)
pairs = st.lists(st.tuples(keys, values), max_size=8)


def encode(recs) -> bytes:
    return b"".join(AofCodec.encode(r) for r in recs)


def rdb_stream(writer, entries, chunk) -> bytes:
    parts = [writer.header()]
    for i in range(0, len(entries), chunk):
        parts.append(writer.chunk(entries[i:i + chunk]))
    parts.append(writer.footer())
    return b"".join(parts)


@given(records)
@settings(max_examples=40, deadline=None)
def test_aof_every_truncation_point(recs):
    stream = encode(recs)
    for cut in range(len(stream) + 1):
        assert_aof_equivalent(stream[:cut])


@given(records, st.integers(min_value=0), st.integers(1, 255))
@settings(max_examples=150, deadline=None)
def test_aof_single_byte_flip(recs, pos, xor):
    stream = bytearray(encode(recs))
    if stream:
        stream[pos % len(stream)] ^= xor
    assert_aof_equivalent(bytes(stream))


@given(records, st.integers(0, 64), st.binary(max_size=12))
@settings(max_examples=100, deadline=None)
def test_aof_zero_padding_and_trailing_garbage(recs, zeros, garbage):
    stream = encode(recs)
    assert_aof_equivalent(stream + bytes(zeros))
    assert_aof_equivalent(stream + bytes(zeros) + garbage)


@given(records, records, st.integers(min_value=0), st.integers(0, 16))
@settings(max_examples=150, deadline=None)
def test_aof_torn_tail_then_valid_resync(head, tail, cut, gap):
    """A record torn mid-append, then a chain that decodes again: the
    interior verdict, its offsets and the strict-mode error agree."""
    torn = encode(head)
    torn = torn[: len(torn) - cut % (len(torn) + 1)]
    assert_aof_equivalent(torn + bytes(gap) + encode(tail))


@given(records, records)
@settings(max_examples=60, deadline=None)
def test_aof_scan_resumes_from_an_offset(first, second):
    prefix = encode(first)
    assert_aof_equivalent(prefix + encode(second), start=len(prefix))


@given(pairs, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_rdb_writer_bytes_identical(entries, chunk):
    want = rdb_stream(RefRdbWriter(PlainZlib()), entries, chunk)
    got = rdb_stream(RdbWriter(Compressor()), entries, chunk)
    assert got == want


@given(pairs, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rdb_every_truncation_point(entries, chunk):
    warm = Compressor()
    stream = rdb_stream(RdbWriter(warm), entries, chunk)
    for cut in range(len(stream) + 1):
        assert_rdb_equivalent(stream[:cut], warm)


@given(pairs, st.integers(1, 5),
       st.integers(min_value=0), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_rdb_single_byte_flip(entries, chunk, pos, xor):
    warm = Compressor()
    stream = bytearray(rdb_stream(RdbWriter(warm), entries, chunk))
    stream[pos % len(stream)] ^= xor
    assert_rdb_equivalent(bytes(stream), warm)


@given(pairs, st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_rdb_trailing_zero_padding(entries, zeros):
    """A slot image is read with its page padding still attached."""
    warm = Compressor()
    stream = rdb_stream(RdbWriter(warm), entries, 3)
    assert_rdb_equivalent(stream + bytes(zeros), warm)


@given(pairs, st.integers(1, 5), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_rdb_any_level_decodes_from_memo_or_inflate(entries, chunk, level):
    """Written by another zlib writer at ``level``: the process codec and
    a cold one inflate it (a level-1 blob may also be a memo hit)."""
    stream = rdb_stream(RefRdbWriter(PlainZlib(level)), entries, chunk)
    assert_rdb_equivalent(stream)


# --- hostile chunks over a blob the memo holds ---------------------------

HOSTILE_ENTRIES = [(b"key-%d" % i, bytes([i]) * (50 + i)) for i in range(6)]
FIRST_CHUNK = _RDB_HDR.size


def reforge(stream: bytes, *, count=0, raw_len=0, blob=None,
            crc_xor=0) -> bytes:
    """Rewrite the first chunk's header fields (``count``/``raw_len`` are
    deltas), blob or CRC; the CRC is recomputed unless ``crc_xor``."""
    pos = FIRST_CHUNK
    _, n, raw, comp_len = _CHUNK_HDR.unpack_from(stream, pos)
    blob_at = pos + _CHUNK_HDR.size
    old = stream[blob_at:blob_at + comp_len]
    rest = stream[blob_at + comp_len + _CRC.size:]
    blob = old if blob is None else blob
    hdr = _CHUNK_HDR.pack(_CHUNK_MAGIC, n + count, raw + raw_len, len(blob))
    crc = _crc(blob, _crc(hdr)) ^ crc_xor
    return stream[:pos] + hdr + blob + _CRC.pack(crc) + rest


def hostile_stream():
    warm = Compressor()
    stream = rdb_stream(RdbWriter(warm), HOSTILE_ENTRIES, 3)
    _, _, _, comp_len = _CHUNK_HDR.unpack_from(stream, FIRST_CHUNK)
    blob_at = FIRST_CHUNK + _CHUNK_HDR.size
    blob = stream[blob_at:blob_at + comp_len]
    assert blob in warm.chunk_memo.by_blob
    return warm, stream, blob


def test_memo_hit_stream_decodes_without_inflating(monkeypatch):
    warm, stream, _ = hostile_stream()
    want = RefRdbReader(PlainZlib()).read_all(stream)

    def no_inflate(self, blob, raw_len=None):
        raise AssertionError("inflated a blob the memo holds")

    monkeypatch.setattr(Compressor, "decompress", no_inflate)
    for windows in [*splittings(stream), split(stream, range(len(stream)))]:
        assert stream_rdb(warm, windows) == want


@pytest.mark.parametrize("forge", [
    dict(count=1), dict(count=-1), dict(raw_len=1), dict(raw_len=-1),
    dict(crc_xor=1), "truncated blob", "stream cut in the blob",
], ids=str)
def test_hostile_chunk_over_a_memo_hit_raises_as_inflate_does(forge):
    warm, stream, blob = hostile_stream()
    if forge == "truncated blob":
        bad = reforge(stream, blob=blob[:-1])
    elif forge == "stream cut in the blob":
        bad = stream[:FIRST_CHUNK + _CHUNK_HDR.size + len(blob) // 2]
    else:
        bad = reforge(stream, **forge)
    got = {read_outcome(codec, windows)
           for codec in (warm, cold()) for windows in splittings(bad)}
    [(kind, exc_type, _message)] = got
    assert (kind, exc_type) == ("raised", CorruptRecord)
    assert_rdb_equivalent(bad, warm)


# --- the reader against the record-building scan, seeded -----------------


def seeded_stream(rng: random.Random) -> tuple[bytes, int]:
    """A stream over a small key pool (so SET/DEL interleave on the same
    keys) with a random ending, and a record-boundary resume offset."""
    def recs(k):
        out = []
        for _ in range(k):
            key = b"k%d" % rng.randrange(6)
            if rng.random() < 0.3:
                out.append(AofRecord(op=OP_DEL, key=key))
            else:
                out.append(AofRecord(op=OP_SET, key=key,
                                     value=rng.randbytes(rng.randrange(30))))
        return out

    head = recs(rng.randrange(12))
    bounds = [0]
    for r in head:
        bounds.append(bounds[-1] + len(AofCodec.encode(r)))
    stream = bytearray(encode(head))
    ending = rng.choice(["clean", "zeros", "torn", "interior", "garbage"])
    if ending == "zeros":
        stream += bytes(rng.randrange(1, 64))
    elif ending == "torn":
        tail = AofCodec.encode(recs(1)[0])
        stream += tail[:rng.randrange(1, len(tail))]
    elif ending == "interior" and stream:
        stream[rng.randrange(len(stream))] ^= rng.randrange(1, 256)
        stream += encode(recs(rng.randrange(1, 4)))
    elif ending == "garbage":
        stream += rng.randbytes(rng.randrange(1, 20))
    return bytes(stream), rng.choice(bounds)


@pytest.mark.parametrize("seed", range(120))
def test_seeded_streams_walk_and_replay_match_reference(seed):
    stream, start = seeded_stream(random.Random(seed))
    assert_aof_equivalent(stream)
    assert_aof_equivalent(stream, start=start)


# --- replay over a held keyspace against the copy-out replay ---------------


def ref_replay(data, keyspace, end):
    """The copy-out replay: every SET's value is copied out of the
    stream, whatever the keyspace holds."""
    for r in RefAofCodec.decode_stream(data[:end]):
        if r.op == OP_SET:
            keyspace[r.key] = r.value
        else:
            keyspace.pop(r.key, None)


HELD = ("missing", "equal", "different", "resized")


@st.composite
def held_replay(draw):
    """A keyspace a snapshot left and a WAL replayed over it: each key's
    held value is missing, byte-equal to every value the WAL SETs it to,
    different at the same size, or of another size."""
    n_keys = draw(st.integers(min_value=1, max_value=6))
    held, wal_value = {}, {}
    for i in range(n_keys):
        key = b"k%d" % i
        value = draw(st.binary(max_size=24))
        state = draw(st.sampled_from(HELD))
        wal_value[key] = value
        if state == "equal":
            held[key] = bytes(bytearray(value))  # equal, not identical
        elif state == "different" and value:
            held[key] = bytes(b ^ 0xFF for b in value)
        elif state == "resized":
            held[key] = value + b"x"
    recs = []
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        key = b"k%d" % draw(st.integers(min_value=0, max_value=n_keys - 1))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            recs.append(AofRecord(op=OP_DEL, key=key))
        elif draw(st.booleans()):
            recs.append(AofRecord(op=OP_SET, key=key, value=wal_value[key]))
        else:
            recs.append(AofRecord(op=OP_SET, key=key,
                                  value=draw(st.binary(max_size=24))))
    return held, recs, draw(st.sampled_from(FORMS))


@given(held_replay(), st.binary(max_size=6))
@settings(max_examples=200, deadline=None)
def test_replay_over_a_held_keyspace_matches_copy_out(case, tail):
    held, recs, form = case
    stream = encode(recs) + tail  # a torn or garbage tail is not replayed
    end = RefAofCodec.scan(stream).consumed
    want = dict(held)
    ref_replay(stream, want, end)
    for windows in ([form(stream)], split(stream, range(len(stream)))):
        got = dict(held)
        reader = AofReader(got)
        for window in windows:
            reader.feed(window)
        assert reader.consumed == end
        assert list(got.items()) == list(want.items())
    # a key every replayed SET gave its held value keeps the held object
    touched = {}
    for r in recs:
        touched.setdefault(r.key, []).append(r)
    for key, value in held.items():
        rs = touched.get(key, [])
        if all(r.op == OP_SET and r.value == value for r in rs):
            assert got[key] is value


# --- streaming equals one buffer, under any windows ---------------------


@st.composite
def cuts_of(draw, data: bytes, anchors: list[int]):
    """Where to cut ``data``: anywhere, one byte at a time, or inside
    the units at ``anchors`` (offsets mid-header, mid-CRC, mid-blob)."""
    mode = draw(st.sampled_from(["arbitrary", "bytewise", "structured"]))
    if mode == "bytewise":
        return list(range(len(data) + 1))
    if mode == "structured" and anchors:
        return draw(st.lists(st.sampled_from(anchors), max_size=12))
    return draw(st.lists(st.integers(0, len(data)), max_size=12))


def aof_anchors(recs) -> list[int]:
    """Offsets inside each record's header, value and CRC."""
    out, pos = [], 0
    for r in recs:
        size = len(AofCodec.encode(r))
        crc_at = pos + size - _CRC.size
        out += range(pos + 1, pos + _AOF_HDR.size)
        out += range(pos + _AOF_HDR.size + 1, crc_at)
        out += range(crc_at + 1, pos + size)
        pos += size
    return out


AOF_DAMAGE = ("valid", "truncated", "torn", "flipped", "padded",
              "interior", "decoy", "hostile")


@st.composite
def aof_case(draw):
    """A held keyspace, a stream damaged one of the ways a log can be,
    and the cuts to feed it with."""
    held, recs, _ = draw(held_replay())
    stream = encode(recs)
    damage = draw(st.sampled_from(AOF_DAMAGE))
    if damage == "truncated" and stream:
        stream = stream[:draw(st.integers(0, len(stream) - 1))]
    elif damage == "torn":
        tail = AofCodec.encode(draw(records.filter(bool))[0])
        stream += tail[:draw(st.integers(1, len(tail) - 1))]
    elif damage == "flipped" and stream:
        flip = bytearray(stream)
        flip[draw(st.integers(0, len(stream) - 1))] ^= draw(st.integers(1, 255))
        stream = bytes(flip)
    elif damage == "padded":
        stream += bytes(draw(st.integers(1, 64)))
    elif damage == "interior" and stream:
        flip = bytearray(stream)
        flip[draw(st.integers(0, len(stream) - 1))] ^= draw(st.integers(1, 255))
        stream = bytes(flip) + bytes(draw(st.integers(0, 8))) + encode(
            draw(records.filter(bool)))
    elif damage == "decoy":
        # after an invalid byte, a record header whose length runs past
        # the end of the stream, then a valid chain: resync must look
        # past the decoy
        decoy = _AOF_HDR.pack(_AOF_MAGIC, OP_SET, draw(st.integers(0, 64)),
                              draw(st.integers(1 << 10, 1 << 31)))
        stream += b"\x07" + decoy + encode(draw(records.filter(bool)))
    elif damage == "hostile":
        stream += draw(st.binary(min_size=1, max_size=60))
    cuts = draw(cuts_of(stream, aof_anchors(recs)))
    return held, stream, cuts, draw(st.integers(0, 2))


def one_buffer_replay(stream, held, strict):
    keyspace = dict(held)
    scan = OneBufferAof.scan(stream, strict=strict)
    OneBufferAof.replay(stream, keyspace, 0, scan.consumed)
    return scan, keyspace


def streamed_replay(windows, held, strict):
    keyspace = dict(held)
    reader = AofReader(keyspace)
    for window in windows:
        reader.feed(window)
    return reader.finish(strict), keyspace


def replay_outcome(fn, *args):
    """``("ok", scan, items, held identity)`` or ``("raised", type,
    message)``."""
    held = args[1]
    try:
        scan, keyspace = fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return ("raised", type(exc), str(exc))
    identity = [value is held.get(key) for key, value in keyspace.items()]
    return ("ok", scan, list(keyspace.items()), identity)


@given(aof_case())
@settings(max_examples=400, deadline=None)
def test_streamed_aof_equals_one_buffer(case):
    held, stream, cuts, form_at = case
    windows = split(stream, cuts, form_at)
    for strict in (False, True):
        want = replay_outcome(one_buffer_replay, stream, held, strict)
        got = replay_outcome(streamed_replay, windows, held, strict)
        assert got == want, strict


def rdb_anchors(stream: bytes) -> list[int]:
    """Offsets inside the header, each chunk's header, blob and CRC, and
    the footer of a valid stream."""
    out = list(range(1, _RDB_HDR.size))
    pos = _RDB_HDR.size
    while pos < len(stream) and stream[pos] == _CHUNK_MAGIC:
        comp_len = _CHUNK_HDR.unpack_from(stream, pos)[3]
        crc_at = pos + _CHUNK_HDR.size + comp_len
        out += range(pos + 1, pos + _CHUNK_HDR.size)
        out += range(pos + _CHUNK_HDR.size + 1, crc_at)
        out += range(crc_at + 1, crc_at + _CRC.size)
        pos = crc_at + _CRC.size
    out += range(pos + 1, pos + _FOOTER.size)
    return out


RDB_DAMAGE = ("valid", "truncated", "flipped", "padded", "forged",
              "hostile")


@st.composite
def rdb_case(draw):
    """A stream one warm codec wrote, damaged one of the ways a slot
    can be, and the cuts to feed it with."""
    warm = Compressor()
    entries = draw(pairs)
    stream = rdb_stream(RdbWriter(warm), entries, draw(st.integers(1, 5)))
    anchors = rdb_anchors(stream)
    damage = draw(st.sampled_from(RDB_DAMAGE))
    if damage == "truncated":
        stream = stream[:draw(st.integers(0, len(stream) - 1))]
    elif damage == "flipped":
        flip = bytearray(stream)
        flip[draw(st.integers(0, len(stream) - 1))] ^= draw(st.integers(1, 255))
        stream = bytes(flip)
    elif damage == "padded":
        stream += bytes(draw(st.integers(1, 64)))
    elif damage == "forged" and entries:
        field = draw(st.sampled_from([1, 5, 9]))  # count, raw_len, comp_len
        forged = bytearray(stream)
        struct.pack_into("<I", forged, FIRST_CHUNK + field,
                         draw(st.integers(0, 2**32 - 1)))
        crc_at = FIRST_CHUNK + _CHUNK_HDR.size + _CHUNK_HDR.unpack_from(
            stream, FIRST_CHUNK)[3]
        struct.pack_into("<I", forged, crc_at,
                         _crc(bytes(forged[FIRST_CHUNK:crc_at])))
        stream = bytes(forged)
    elif damage == "hostile":
        cut = draw(st.sampled_from([0, _RDB_HDR.size, len(stream)]))
        stream = stream[:cut] + draw(st.binary(min_size=1, max_size=60))
    cuts = draw(cuts_of(stream, anchors))
    return warm, stream, cuts, draw(st.integers(0, 2))


@given(rdb_case())
@settings(max_examples=400, deadline=None)
def test_streamed_rdb_equals_one_buffer(case):
    warm, stream, cuts, form_at = case
    windows = split(stream, cuts, form_at)
    for codec in (warm, cold()):
        want = message_outcome(OneBufferRdbReader(codec).read_all, stream)
        got = read_outcome(codec, windows)
        assert got == want
        if got[0] == "ok":
            # a memo hit hands out the memo's own entries, as before
            memo = {id(entry) for _, batch in codec.chunk_memo.by_blob.values()
                    for entry in batch}
            assert [g is w for g, w in zip(got[1], want[1])] == [
                id(w) in memo for w in want[1]]
