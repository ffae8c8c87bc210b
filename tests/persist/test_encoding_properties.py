"""Property-based codec tests."""

import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.persist import (
    AofCodec,
    AofRecord,
    CorruptRecord,
    CorruptionError,
    OP_SET,
    RdbWriter,
)
from repro.persist.compress import Compressor

from tests.persist.records import decode, read_rdb

keys = st.binary(min_size=0, max_size=64)
values = st.binary(min_size=0, max_size=512)


@given(st.lists(st.tuples(keys, values), max_size=40))
@settings(max_examples=60, deadline=None)
def test_aof_stream_roundtrip(pairs):
    recs = [AofRecord(op=OP_SET, key=k, value=v) for k, v in pairs]
    stream = b"".join(AofCodec.encode(r) for r in recs)
    assert decode(stream) == recs


@given(st.lists(st.tuples(keys, values), max_size=40),
       st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_aof_arbitrary_truncation_is_prefix(pairs, cut):
    """Any truncation decodes to a strict prefix of the full stream."""
    recs = [AofRecord(op=OP_SET, key=k, value=v) for k, v in pairs]
    stream = b"".join(AofCodec.encode(r) for r in recs)
    cut = min(cut, len(stream))
    decoded = decode(stream[:cut])
    assert decoded == recs[: len(decoded)]


@given(st.lists(st.tuples(keys, values), max_size=30),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_rdb_roundtrip_any_chunking(pairs, chunk):
    comp = Compressor()
    w = RdbWriter(comp)
    stream = w.header()
    for i in range(0, len(pairs), chunk):
        stream += w.chunk(pairs[i : i + chunk])
    stream += w.footer()
    assert read_rdb(stream, comp) == pairs


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=20),
       st.integers(min_value=0, max_value=10_000), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_rdb_single_byte_corruption_never_passes_silently(pairs, pos, xor):
    """Flip one byte anywhere: the reader must either raise or (if the
    flip is a no-op) return identical data — never wrong data."""

    comp = Compressor()
    w = RdbWriter(comp)
    stream = w.header()
    stream += w.chunk(pairs)
    stream += w.footer()
    if xor == 0:
        return
    pos = pos % len(stream)
    corrupted = bytearray(stream)
    corrupted[pos] ^= xor
    try:
        decoded = read_rdb(bytes(corrupted), comp)
    except CorruptRecord:
        return
    assert decoded == pairs


# --- hostile bytes: a typed error or a result, nothing else -----------

_RDB_HEADER = RdbWriter(Compressor()).header()
#: start here so arbitrary bytes get past the first check
_PREFIXES = st.sampled_from([b"", _RDB_HEADER, _RDB_HEADER + b"\xc7",
                             _RDB_HEADER + b"\xf0", b"\xa5\x01", b"\xa5\x02"])


def read_hostile_rdb(stream) -> None:
    try:
        read_rdb(stream, Compressor())
    except CorruptRecord:
        pass


def scan_aof(stream) -> None:
    """Lenient never raises; strict raises CorruptionError only."""
    lenient = AofCodec.scan(stream)
    assert 0 <= lenient.consumed <= len(stream)
    try:
        strict = AofCodec.scan(stream, strict=True)
    except CorruptionError:
        assert lenient.tail_kind == "interior"
    else:
        assert strict == lenient


@given(_PREFIXES, st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_typed_errors(prefix, junk):
    read_hostile_rdb(prefix + junk)
    scan_aof(prefix + junk)
    scan_aof(bytearray(prefix + junk))


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=10),
       st.sampled_from([1, 5, 9]),            # count, raw_len, comp_len
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rdb_mutated_length_field(pairs, field_at, lie, reseal):
    """A lying n_entries / raw_len / comp_len — with the chunk CRC
    recomputed over the lie, so the CRC alone cannot save the reader."""
    w = RdbWriter(Compressor())
    header, chunk, footer = w.header(), bytearray(w.chunk(pairs)), w.footer()
    struct.pack_into("<I", chunk, field_at, lie)
    if reseal:
        struct.pack_into("<I", chunk, len(chunk) - 4, zlib.crc32(chunk[:-4]))
    read_hostile_rdb(header + bytes(chunk) + footer)


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=10),
       st.integers(min_value=0), st.sampled_from([2, 6]),   # klen, vlen
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_aof_mutated_length_field(pairs, which, field_at, lie, reseal):
    recs = [AofCodec.encode(AofRecord(op=OP_SET, key=k, value=v))
            for k, v in pairs]
    victim = bytearray(recs[which % len(recs)])
    struct.pack_into("<I", victim, field_at, lie)
    if reseal:
        struct.pack_into("<I", victim, len(victim) - 4,
                         zlib.crc32(victim[:-4]))
    recs[which % len(recs)] = bytes(victim)
    scan_aof(b"".join(recs))
