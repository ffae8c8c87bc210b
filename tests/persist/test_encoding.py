"""Codec tests: AOF records and RDB streams."""

import struct
import tracemalloc
import zlib

import pytest

from repro.persist import (
    AofCodec,
    AofRecord,
    CorruptRecord,
    OP_DEL,
    OP_SET,
    RdbReader,
    RdbWriter,
)
from repro.persist.compress import Compressor


def test_aof_record_roundtrip():
    rec = AofRecord(op=OP_SET, key=b"key1", value=b"value1")
    encoded = AofCodec.encode(rec)
    decoded = list(AofCodec.decode_stream(encoded))
    assert decoded == [rec]


def test_aof_del_record():
    rec = AofRecord(op=OP_DEL, key=b"gone")
    assert list(AofCodec.decode_stream(AofCodec.encode(rec))) == [rec]


def test_aof_del_with_value_rejected():
    with pytest.raises(ValueError):
        AofRecord(op=OP_DEL, key=b"k", value=b"v")


def test_aof_bad_op_rejected():
    with pytest.raises(ValueError):
        AofRecord(op=7, key=b"k")


def test_aof_stream_of_many_records():
    recs = [AofRecord(op=OP_SET, key=f"k{i}".encode(), value=b"v" * i)
            for i in range(50)]
    stream = b"".join(AofCodec.encode(r) for r in recs)
    assert list(AofCodec.decode_stream(stream)) == recs


def test_aof_torn_tail_stops_cleanly():
    recs = [AofRecord(op=OP_SET, key=b"a", value=b"1"),
            AofRecord(op=OP_SET, key=b"b", value=b"2")]
    stream = b"".join(AofCodec.encode(r) for r in recs)
    torn = stream[:-3]  # crash mid-append of the second record
    assert list(AofCodec.decode_stream(torn)) == recs[:1]


def test_aof_corrupt_crc_stops_replay():
    stream = bytearray(AofCodec.encode(AofRecord(op=OP_SET, key=b"a", value=b"1")))
    stream[-1] ^= 0xFF
    assert list(AofCodec.decode_stream(bytes(stream))) == []


def test_aof_garbage_prefix_yields_nothing():
    assert list(AofCodec.decode_stream(b"\x00" * 64)) == []


def test_aof_empty_value_allowed():
    rec = AofRecord(op=OP_SET, key=b"k", value=b"")
    assert list(AofCodec.decode_stream(AofCodec.encode(rec))) == [rec]


def rdb_roundtrip(entries):
    comp = Compressor()
    w = RdbWriter(comp)
    stream = w.header()
    for i in range(0, len(entries), 3):
        stream += w.chunk(entries[i : i + 3])
    stream += w.footer()
    return RdbReader(comp).read_all(stream), stream


def test_rdb_roundtrip_basic():
    entries = [(f"key{i}".encode(), (f"value{i}" * 10).encode())
               for i in range(10)]
    decoded, _ = rdb_roundtrip(entries)
    assert decoded == entries


def test_rdb_empty_snapshot():
    decoded, _ = rdb_roundtrip([])
    assert decoded == []


def test_rdb_compression_flag_mismatch_detected():
    """A header whose compression flag is 0 (no writer emits one) is
    hostile input, whatever follows it."""
    header = struct.Struct("<10sHI")  # magic, flags, reserved
    _, stream = rdb_roundtrip([(b"k", b"v")])
    assert stream[:header.size] == header.pack(b"REPRO-RDB1", 1, 0)
    forged = header.pack(b"REPRO-RDB1", 0, 0) + stream[header.size:]
    with pytest.raises(CorruptRecord, match="compression flag"):
        RdbReader().read_all(forged)


def test_rdb_truncated_stream_rejected():
    entries = [(b"k" * 10, b"v" * 1000)]
    _, stream = rdb_roundtrip(entries)
    with pytest.raises(CorruptRecord):
        RdbReader().read_all(stream[: len(stream) // 2])


def test_rdb_missing_footer_rejected():
    comp = Compressor()
    w = RdbWriter(comp)
    stream = w.header() + w.chunk([(b"k", b"v")])
    with pytest.raises(CorruptRecord, match="footer"):
        RdbReader(comp).read_all(stream)


def test_rdb_flipped_bit_in_chunk_rejected():
    entries = [(b"key", b"val" * 100)]
    _, stream = rdb_roundtrip(entries)
    corrupted = bytearray(stream)
    corrupted[len(stream) // 2] ^= 0x01
    with pytest.raises(CorruptRecord):
        RdbReader().read_all(bytes(corrupted))


def test_rdb_bad_magic_rejected():
    with pytest.raises(CorruptRecord, match="magic"):
        RdbReader().read_all(b"NOT-AN-RDB" + bytes(64))


def test_rdb_writer_state_machine():
    w = RdbWriter()
    with pytest.raises(RuntimeError):
        w.chunk([(b"k", b"v")])  # header first
    w.header()
    with pytest.raises(RuntimeError):
        w.header()
    w.footer()
    with pytest.raises(RuntimeError):
        w.chunk([(b"k", b"v")])
    with pytest.raises(RuntimeError):
        w.footer()


def test_rdb_entry_count_tracked():
    w = RdbWriter()
    w.header()
    w.chunk([(b"a", b"1"), (b"b", b"2")])
    w.chunk([(b"c", b"3")])
    assert w.entries_written == 3


def test_rdb_binary_safe_keys_and_values():
    entries = [(bytes(range(256)), bytes(reversed(range(256))))]
    decoded, _ = rdb_roundtrip(entries)
    assert decoded == entries


def sealed_rdb(count: int, raw_len: int, blob: bytes) -> bytes:
    """A one-chunk compressed image whose chunk CRC is *valid* over
    whatever header fields and blob it is given."""
    w = RdbWriter(Compressor())
    header = w.header()
    w.chunk([(b"k", b"v")] * count)
    body = struct.pack("<BIII", 0xC7, count, raw_len, len(blob)) + blob
    return header + body + struct.pack("<I", zlib.crc32(body)) + w.footer()


def test_rdb_valid_crc_over_a_blob_that_is_not_zlib_is_corrupt_record():
    """zlib.error must not escape: core.verify catches CorruptRecord."""
    stream = sealed_rdb(1, 15, b"not zlib at all")
    with pytest.raises(CorruptRecord, match="chunk blob"):
        RdbReader().read_all(stream)


def test_rdb_declared_raw_len_bounds_the_inflation():
    """64 MiB of zeros behind ``raw_len = 16`` is refused without being
    inflated (the length field was accepted and ignored before)."""
    stream = sealed_rdb(1, 16, zlib.compress(bytes(64 * 1024 * 1024), 1))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptRecord):
            RdbReader().read_all(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_aof_crc_valid_del_carrying_a_value_is_not_a_record():
    """Never written by ``encode``; decoding it must end the stream the
    way any other invalid record does, not raise ValueError."""
    good = AofCodec.encode(AofRecord(op=OP_SET, key=b"a", value=b"1"))
    body = struct.pack("<BBII", 0xA5, OP_DEL, 1, 1) + b"kv"
    bad = body + struct.pack("<I", zlib.crc32(body))
    assert list(AofCodec.decode_stream(good + bad)) == [
        AofRecord(op=OP_SET, key=b"a", value=b"1")]
    scan = AofCodec.scan(good + bad + good)
    assert (scan.consumed, scan.tail_kind, scan.trailing_records) == (
        len(good), "interior", 1)
