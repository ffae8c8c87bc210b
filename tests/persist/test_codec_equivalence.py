"""Reference twins for the copy-free codecs.

``repro.persist.encoding`` CRCs over one memoryview per call and slices
keys, values and blobs straight out of the input; the AOF scan builds
no records (a walk validates, :meth:`AofCodec.items` decodes the
validated range), and the RDB reader answers a blob held in the chunk
memo without inflating it. The bodies below are the per-copy,
record-building, always-inflating versions they replaced, kept as the
reference: on any stream — valid, truncated at every offset, one byte
flipped, zero padded, torn and then resumed — both must produce the
same writer bytes, the same records and replayed keyspace, the same
scan verdict and the same exception type, whether the input is
``bytes``, ``bytearray`` or ``memoryview`` and whether the reader's
memo is warm, cold or absent.

The one intended divergence is the bugfix that rides with the change: a
CRC-valid chunk whose blob zlib rejects escaped the reference as
``zlib.error``; the reader now reports it as :class:`CorruptRecord`.
"""

import random
import zlib
from dataclasses import dataclass

import pytest

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
from repro.persist.compress import Compressor, _Memo
from repro.persist.encoding import (
    _AOF_HDR,
    _AOF_MAGIC,
    _CHUNK_HDR,
    _CHUNK_MAGIC,
    _CRC,
    _ENTRY_HDR,
    _FOOTER_MAGIC,
    _RDB_HDR,
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


def walk_scan(data, start, strict):
    """The same verdict from the walk, records decoded only over the
    validated range, keyspace from :meth:`AofCodec.replay`."""
    scan = AofCodec.scan(data, start, strict)
    records = [AofRecord(op=op, key=key, value=value)
               for op, key, value in AofCodec.items(data, start,
                                                    scan.consumed)]
    assert scan.count == len(records)
    assert AofCodec.walk(data, start) == (scan.consumed, scan.count)
    keyspace = {}
    AofCodec.replay(data, keyspace, start, scan.consumed)
    return (scan.consumed, scan.truncated_at, scan.tail_kind,
            scan.resync_at, scan.trailing_records, records, keyspace)


def assert_aof_equivalent(stream: bytes, start: int = 0) -> None:
    for strict in (False, True):
        want = outcome(ref_scan, stream, start, strict)
        for form in FORMS:
            got = outcome(walk_scan, form(stream), start, strict)
            assert got == want, (form.__name__, strict)
    want = list(RefAofCodec.decode_stream(stream))
    for form in FORMS:
        assert list(AofCodec.decode_stream(form(stream))) == want


def cold(level: int = 1) -> Compressor:
    """A codec whose chunk memo holds nothing, whatever else is alive."""
    codec = Compressor(level=level)
    codec.chunk_memo = _Memo()
    return codec


def read_outcome(codec, data):
    """``("ok", entries)`` or ``("raised", type, message)``."""
    try:
        return ("ok", RdbReader(codec).read_all(data))
    except Exception as exc:  # the type and message are what is compared
        return ("raised", type(exc), str(exc))


def assert_rdb_equivalent(stream: bytes, compressed: bool,
                          *warm: Compressor) -> None:
    """Every reader decodes ``stream`` as the always-inflating reference
    does: the level-1 codec as the process has it, one whose memo is
    cold, and the ``warm`` codecs that wrote the stream's blobs. The
    memo and inflate paths must also raise the same message."""
    want = outcome(RefRdbReader(PlainZlib(compressed)).read_all, stream)
    if want[:2] == ("raised", zlib.error):
        want = ("raised", CorruptRecord, None)  # the bugfix, see above
    codecs = [Compressor(enabled=compressed), *warm]
    if compressed:
        codecs.append(cold())
    messages = set()
    for codec in codecs:
        for form in FORMS:
            got = read_outcome(codec, form(stream))
            assert got[:2] == want[:2], (codec.level, form.__name__)
            if got[0] == "ok":
                assert got == want, (codec.level, form.__name__)
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


@given(pairs, st.integers(1, 5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_rdb_writer_bytes_identical(entries, chunk, compressed):
    want = rdb_stream(RefRdbWriter(PlainZlib(compressed)), entries, chunk)
    got = rdb_stream(RdbWriter(Compressor(enabled=compressed)), entries, chunk)
    assert got == want


@given(pairs, st.integers(1, 5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rdb_every_truncation_point(entries, chunk, compressed):
    warm = Compressor(enabled=compressed)
    stream = rdb_stream(RdbWriter(warm), entries, chunk)
    for cut in range(len(stream) + 1):
        assert_rdb_equivalent(stream[:cut], compressed, warm)


@given(pairs, st.integers(1, 5), st.booleans(),
       st.integers(min_value=0), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_rdb_single_byte_flip(entries, chunk, compressed, pos, xor):
    warm = Compressor(enabled=compressed)
    stream = bytearray(rdb_stream(RdbWriter(warm), entries, chunk))
    stream[pos % len(stream)] ^= xor
    assert_rdb_equivalent(bytes(stream), compressed, warm)


@given(pairs, st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_rdb_trailing_zero_padding(entries, zeros):
    """A slot image is read with its page padding still attached."""
    warm = Compressor()
    stream = rdb_stream(RdbWriter(warm), entries, 3)
    assert_rdb_equivalent(stream + bytes(zeros), True, warm)


@given(pairs, st.integers(1, 5), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_rdb_any_level_decodes_from_memo_or_inflate(entries, chunk, level):
    """Written at ``level``: its own (warm) codec answers from the memo,
    a cold codec of the level and the level-1 codec inflate."""
    warm = Compressor(level=level)
    stream = rdb_stream(RdbWriter(warm), entries, chunk)
    assert_rdb_equivalent(stream, True, warm, cold(level))


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
    for form in FORMS:
        assert RdbReader(warm).read_all(form(stream)) == want


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
    got = {read_outcome(codec, form(bad))
           for codec in (warm, cold()) for form in FORMS}
    [(kind, exc_type, _message)] = got
    assert (kind, exc_type) == ("raised", CorruptRecord)
    assert_rdb_equivalent(bad, True, warm)


# --- the walk + replay against the record-building scan, seeded -----------


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


def ref_replay(data, keyspace, start=0, end=None):
    """The copy-out replay :meth:`AofCodec.replay` replaced: every SET's
    value is copied out of the stream, whatever the keyspace holds."""
    for op, key, value in AofCodec.items(data, start, end):
        if op == OP_SET:
            keyspace[key] = value
        else:
            keyspace.pop(key, None)


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
    end = AofCodec.scan(stream).consumed
    want = dict(held)
    ref_replay(stream, want, 0, end)
    got = dict(held)
    AofCodec.replay(form(stream), got, 0, end)
    assert list(got.items()) == list(want.items())
    walked = dict(held)
    AofCodec.replay(form(stream), walked)  # end=None walks the range first
    assert list(walked.items()) == list(want.items())
    # a key every replayed SET gave its held value keeps the held object
    touched = {}
    for r in recs:
        touched.setdefault(r.key, []).append(r)
    for key, value in held.items():
        rs = touched.get(key, [])
        if all(r.op == OP_SET and r.value == value for r in rs):
            assert got[key] is value
