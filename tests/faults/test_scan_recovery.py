"""AOF tail classification and its surfacing through RecoveryResult.

``AofReader.finish`` (and ``AofCodec.scan``, one window of it) must
tell a *torn* tail (crash fragment — truncate and carry on, Redis's
``aof-load-truncated``) from *interior* corruption (CRC-valid records
resume after the failure — damaged media, where silent truncation
would drop acknowledged writes).
"""

import pytest

from repro.kernel import CpuAccount
from repro.persist.encoding import (
    AofCodec,
    AofReader,
    AofRecord,
    CorruptionError,
    OP_DEL,
    OP_SET,
)
from repro.persist.recovery import recover_store
from repro.sim import Environment

from tests.faults.conftest import drive
from tests.persist.records import decode


def rec(key, value):
    return AofCodec.encode(AofRecord(OP_SET, key, value))


def keys(blob, result, start=0):
    """Keys of the records a scan validated (it builds none itself)."""
    keys = [r.key for r in decode(blob[start:result.consumed])]
    assert len(keys) == result.count
    return keys


def test_scan_clean_stream():
    blob = rec(b"a", b"1" * 20) + rec(b"b", b"2" * 20)
    result = AofCodec.scan(blob)
    assert keys(blob, result) == [b"a", b"b"]
    assert result.consumed == len(blob)
    assert result.tail_kind == "clean"
    assert result.truncated_at is None


def test_scan_zero_padding_is_clean():
    blob = rec(b"a", b"1" * 20)
    result = AofCodec.scan(blob + bytes(300))
    assert result.tail_kind == "clean"
    assert result.consumed == len(blob)


def test_scan_torn_tail():
    good = rec(b"a", b"1" * 20) + rec(b"b", b"2" * 20)
    torn = rec(b"c", b"3" * 40)[:15]  # crash mid-append
    result = AofCodec.scan(good + torn)
    assert keys(good + torn, result) == [b"a", b"b"]
    assert result.tail_kind == "torn"
    assert result.truncated_at == len(good)
    assert result.trailing_records == 0


def test_scan_interior_corruption_classified():
    r1 = rec(b"a", b"x" * 30)
    r2 = bytearray(rec(b"b", b"y" * 30))
    r2[15] ^= 0xFF  # damage the value: header decodes, CRC fails
    r3 = rec(b"c", b"z" * 30)
    result = AofCodec.scan(r1 + bytes(r2) + r3)
    assert keys(r1 + bytes(r2) + r3, result) == [b"a"]
    assert result.tail_kind == "interior"
    assert result.truncated_at == len(r1)
    assert result.resync_at == len(r1) + len(r2)
    assert result.trailing_records == 1


def test_scan_strict_raises_with_offsets():
    r1 = rec(b"a", b"x" * 30)
    r2 = bytearray(rec(b"b", b"y" * 30))
    r2[15] ^= 0xFF
    r3 = rec(b"c", b"z" * 30)
    with pytest.raises(CorruptionError) as exc_info:
        AofCodec.scan(r1 + bytes(r2) + r3, strict=True)
    exc = exc_info.value
    assert exc.offset == len(r1)
    assert exc.resync_at == len(r1) + len(r2)
    assert exc.trailing_records == 1


def test_scan_resumes_from_start_offset():
    r1 = rec(b"a", b"1" * 20)
    blob = r1 + rec(b"b", b"2" * 20)
    resumed = AofCodec.scan(blob, start=len(r1))
    assert keys(blob, resumed, start=len(r1)) == [b"b"]
    assert resumed.consumed == len(blob)


def test_reader_applies_nothing_past_damage():
    r1 = rec(b"a", b"x" * 30)
    r2 = bytearray(rec(b"b", b"y" * 30))
    r2[15] ^= 0xFF
    r3 = rec(b"c", b"z" * 30)
    keyspace = {}
    reader = AofReader(keyspace)
    for window in (r1[:7], r1[7:] + bytes(r2[:20]), bytes(r2[20:]) + r3):
        reader.feed(window)
    assert keyspace == {b"a": b"x" * 30}
    assert (reader.consumed, reader.count) == (len(r1), 1)
    assert reader.finish().tail_kind == "interior"


class _BlobSink:
    """AppendSink stand-in: recovery reads a pre-built byte stream."""

    def __init__(self, blob):
        self._blob = blob

    def read_all(self, account, reader):
        reader.feed(self._blob)
        return
        yield  # generator form for interface parity


def _recover(blob, strict_wal=False):
    env = Environment()
    acct = CpuAccount(env, "scan-test")
    return drive(env, recover_store(env, None, _BlobSink(blob), acct,
                                    strict_wal=strict_wal))


def test_recovery_result_applies_sets_and_dels():
    blob = (rec(b"a", b"1") + rec(b"b", b"2")
            + AofCodec.encode(AofRecord(OP_DEL, b"a")))
    result = _recover(blob)
    assert result.data == {b"b": b"2"}
    assert result.wal_records_applied == 3
    assert result.wal_tail == "clean"


def test_recovery_result_reports_torn_tail():
    good = rec(b"a", b"1" * 20) + rec(b"b", b"2" * 20)
    result = _recover(good + rec(b"c", b"3" * 20)[:10])
    assert result.data == {b"a": b"1" * 20, b"b": b"2" * 20}
    assert result.wal_tail == "torn"
    assert result.wal_truncated_at == len(good)
    assert result.wal_corrupt_records == 0


def test_recovery_result_reports_interior_corruption():
    r1 = rec(b"a", b"x" * 30)
    r2 = bytearray(rec(b"b", b"y" * 30))
    r2[15] ^= 0xFF
    blob = r1 + bytes(r2) + rec(b"c", b"z" * 30)
    result = _recover(blob)
    assert result.data == {b"a": b"x" * 30}  # prefix applied, damage reported
    assert result.wal_tail == "interior"
    assert result.wal_truncated_at == len(r1)
    assert result.wal_corrupt_records == 1


def test_recovery_strict_mode_raises_on_interior_corruption():
    r1 = rec(b"a", b"x" * 30)
    r2 = bytearray(rec(b"b", b"y" * 30))
    r2[15] ^= 0xFF
    blob = r1 + bytes(r2) + rec(b"c", b"z" * 30)
    with pytest.raises(CorruptionError):
        _recover(blob, strict_wal=True)
