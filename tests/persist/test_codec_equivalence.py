"""Reference twins for the copy-free codecs.

``repro.persist.encoding`` CRCs over one memoryview per call and slices
keys, values and blobs straight out of the input. The bodies below are
the per-copy versions it replaced, kept verbatim as the reference: on
any stream — valid, truncated at every offset, one byte flipped, zero
padded, torn and then resumed — both must produce the same writer
bytes, the same records, the same scan verdict and the same exception
type, whether the input is ``bytes``, ``bytearray`` or ``memoryview``.

The one intended divergence is the bugfix that rides with the change: a
CRC-valid chunk whose blob zlib rejects escaped the reference as
``zlib.error``; the reader now reports it as :class:`CorruptRecord`.
"""

import zlib

from hypothesis import given, settings, strategies as st

from repro.persist import (
    AofCodec,
    AofRecord,
    CorruptRecord,
    CorruptionError,
    OP_DEL,
    OP_SET,
    RdbReader,
    RdbWriter,
)
from repro.persist.compress import Compressor
from repro.persist.encoding import (
    _AOF_HDR,
    _AOF_MAGIC,
    _CHUNK_HDR,
    _CHUNK_MAGIC,
    _CRC,
    _ENTRY_HDR,
    _FOOTER_MAGIC,
    AofScanResult,
    _crc,
)


# --- the reference: one copy per step, as the codecs were -------------


class PlainZlib:
    """What ``Compressor`` was to the reference codecs: zlib, no memo,
    the declared length ignored."""

    def __init__(self, enabled=True):
        self.enabled = enabled

    def compress(self, raw):
        return zlib.compress(raw, 1) if self.enabled else raw

    def decompress(self, blob, raw_len=None):
        return zlib.decompress(blob) if self.enabled else blob


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
            return AofScanResult(records=records, consumed=pos,
                                 truncated_at=None, tail_kind="clean",
                                 resync_at=None, trailing_records=0)
        resync_at, trailing = RefAofCodec._resync(data, pos, n)
        if resync_at is None:
            return AofScanResult(records=records, consumed=pos,
                                 truncated_at=pos, tail_kind="torn",
                                 resync_at=None, trailing_records=0)
        if strict:
            raise CorruptionError(pos, resync_at, trailing)
        return AofScanResult(records=records, consumed=pos,
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


class RefRdbReader(RdbReader):
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


# --- comparing the two ------------------------------------------------

FORMS = (bytes, bytearray, memoryview)


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("raised", type, details)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except CorruptionError as exc:
        return ("raised", CorruptionError,
                (exc.offset, exc.resync_at, exc.trailing_records))
    except Exception as exc:  # the type is what is being compared
        return ("raised", type(exc), None)


def assert_aof_equivalent(stream: bytes, start: int = 0) -> None:
    for strict in (False, True):
        want = outcome(RefAofCodec.scan, stream, start, strict)
        for form in FORMS:
            got = outcome(AofCodec.scan, form(stream), start, strict)
            assert got == want, (form.__name__, strict)
    want = list(RefAofCodec.decode_stream(stream))
    for form in FORMS:
        assert list(AofCodec.decode_stream(form(stream))) == want


def assert_rdb_equivalent(stream: bytes, compressed: bool) -> None:
    want = outcome(RefRdbReader(PlainZlib(compressed)).read_all, stream)
    if want[:2] == ("raised", zlib.error):
        want = ("raised", CorruptRecord, None)  # the bugfix, see above
    for form in FORMS:
        got = outcome(RdbReader(Compressor(enabled=compressed)).read_all,
                      form(stream))
        assert got == want, form.__name__


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


@given(pairs, st.integers(1, 5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_rdb_writer_bytes_identical(entries, chunk, compressed):
    want = rdb_stream(RefRdbWriter(PlainZlib(compressed)), entries, chunk)
    got = rdb_stream(RdbWriter(Compressor(enabled=compressed)), entries, chunk)
    assert got == want


@given(pairs, st.integers(1, 5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rdb_every_truncation_point(entries, chunk, compressed):
    stream = rdb_stream(RefRdbWriter(PlainZlib(compressed)), entries, chunk)
    for cut in range(len(stream) + 1):
        assert_rdb_equivalent(stream[:cut], compressed)


@given(pairs, st.integers(1, 5), st.booleans(),
       st.integers(min_value=0), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_rdb_single_byte_flip(entries, chunk, compressed, pos, xor):
    stream = bytearray(
        rdb_stream(RefRdbWriter(PlainZlib(compressed)), entries, chunk))
    stream[pos % len(stream)] ^= xor
    assert_rdb_equivalent(bytes(stream), compressed)


@given(pairs, st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_rdb_trailing_zero_padding(entries, zeros):
    """A slot image is read with its page padding still attached."""
    stream = rdb_stream(RefRdbWriter(PlainZlib()), entries, 3)
    assert_rdb_equivalent(stream + bytes(zeros), True)
