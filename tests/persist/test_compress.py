"""Compression model and codec tests."""

import gc
import random
import struct
import tracemalloc
import types
import weakref
import zlib

import pytest

from repro.persist import CompressionModel, Compressor
from repro.persist import compress as compress_mod
from repro.persist.compress import _MEMOS
from repro.persist.encoding import RdbWriter


def test_roundtrip():
    c = Compressor()
    raw = b"abcabcabc" * 100
    assert c.decompress(c.compress(raw)) == raw


def test_disabled_passthrough():
    c = Compressor(enabled=False)
    raw = b"data"
    assert c.compress(raw) == raw
    assert c.decompress(raw) == raw
    assert c.ratio(raw) == 1.0


def test_repetitive_data_compresses():
    c = Compressor()
    assert c.ratio(b"\x00" * 4096) < 0.1


def test_random_data_barely_compresses():
    rng = random.Random(7)
    raw = bytes(rng.getrandbits(8) for _ in range(4096))
    assert c_ratio_close_to_one(Compressor().ratio(raw))


def c_ratio_close_to_one(r):
    return 0.9 < r < 1.1


def test_empty_ratio_is_one():
    assert Compressor().ratio(b"") == 1.0


def test_level_validation():
    with pytest.raises(ValueError):
        Compressor(level=10)


def test_model_cost_scaling():
    m = CompressionModel()
    one_mb = m.compress_time(1024 * 1024, 1)
    two_mb = m.compress_time(2 * 1024 * 1024, 1)
    assert two_mb > one_mb
    # per-object overhead: many small objects cost more than one big one
    assert m.compress_time(1024 * 1024, 1000) > m.compress_time(1024 * 1024, 1)


def test_model_decompress_faster_than_compress():
    m = CompressionModel()
    n = 10 * 1024 * 1024
    assert m.decompress_time(n, 1) < m.compress_time(n, 1)


def test_model_validation():
    with pytest.raises(ValueError):
        CompressionModel(compress_bandwidth=0)
    with pytest.raises(ValueError):
        CompressionModel(per_object_overhead=-1)


# --- the shared chunk memo: one zlib call per distinct batch per process


@pytest.fixture
def zlib_calls(monkeypatch):
    """Count the zlib work ``repro.persist.compress`` does (the module
    sees a counting stand-in; the test's own zlib calls are not it)."""
    calls = {"compress": 0, "inflate": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(compress_mod, "zlib", types.SimpleNamespace(
        compress=counted("compress", zlib.compress),
        decompress=counted("inflate", zlib.decompress),
        decompressobj=counted("inflate", zlib.decompressobj),
        error=zlib.error,
    ))
    return calls


def chunk(tag: int) -> bytes:
    """Fresh bytes per call, so identity is never what makes a hit."""
    return bytes([tag]) * 3000 + b"tail-%d" % tag


def batch(tag: int) -> list[tuple[bytes, bytes]]:
    """A snapshot batch of fresh key and value objects."""
    return [(b"key-%d" % tag, chunk(tag)), (b"k2-%d" % tag, chunk(tag + 1))]


def write_chunk(codec: Compressor, entries) -> bytes:
    writer = RdbWriter(codec)
    writer.header()
    return writer.chunk(entries)


def test_codecs_alive_together_compress_equal_bytes_once(zlib_calls):
    a, b = Compressor(), Compressor()
    first = write_chunk(a, batch(1))
    assert write_chunk(b, batch(1)) == first
    assert write_chunk(a, batch(1)) == first
    assert zlib_calls == {"compress": 1, "inflate": 0}
    # the memo is keyed by the entries: a new batch misses
    assert write_chunk(b, batch(11)) != first
    assert zlib_calls["compress"] == 2


def test_memo_holds_the_entries_not_a_raw_copy():
    c = Compressor(level=4)
    entries = batch(3)
    write_chunk(c, entries)
    [(key, (raw_len, blob))] = c.chunk_memo.items()
    assert key == tuple(entries) and key[0][1] is entries[0][1]
    assert raw_len == sum(8 + len(k) + len(v) for k, v in entries)
    assert c.chunk_memo.nbytes == len(blob)


def test_compress_itself_keeps_no_memo(zlib_calls):
    c = Compressor(level=7)
    assert c.compress(chunk(1)) == c.compress(chunk(1))
    assert zlib_calls["compress"] == 2
    assert c.chunk_memo == {}


def test_unhashable_batch_skips_the_memo(zlib_calls):
    c = Compressor(level=5)
    mutable = [(b"k", bytearray(chunk(8)))]
    assert write_chunk(c, mutable) == write_chunk(c, [(b"k", chunk(8))])
    assert write_chunk(c, mutable) == write_chunk(c, [(b"k", chunk(8))])
    # the bytes batch deflated once, the bytearray one every time
    assert zlib_calls["compress"] == 3
    assert list(c.chunk_memo) == [((b"k", chunk(8)),)]


def test_levels_never_exchange_blobs(zlib_calls):
    fast, small = Compressor(level=1), Compressor(level=6)
    raw = bytes(range(256)) * 40
    entries = [(b"", raw)]
    encoded = struct.pack("<II", 0, len(raw)) + raw
    assert zlib.compress(encoded, 1) in write_chunk(fast, entries)
    assert zlib.compress(encoded, 6) in write_chunk(small, entries)
    assert write_chunk(fast, entries) != write_chunk(small, entries)
    assert zlib_calls["compress"] == 2


def test_disabled_codec_stores_and_reads_nothing(zlib_calls):
    live = Compressor()
    off = Compressor(enabled=False)
    write_chunk(live, batch(2))
    before = dict(live.chunk_memo)
    assert off.chunk_memo is None
    write_chunk(off, batch(2))
    assert off.compress(chunk(2)) == chunk(2)
    blob = zlib.compress(chunk(2), 1)
    assert off.decompress(blob) is blob
    assert live.chunk_memo == before
    assert zlib_calls == {"compress": 1, "inflate": 0}


def test_every_decompress_goes_through_zlib(zlib_calls):
    """``Compressor.decompress`` keeps no memo: a blob it is handed is
    inflated, even one this process deflated. Only ``RdbReader`` reads
    the memo's reverse map, and only for a whole chunk whose header
    agrees with it (docs/PERFORMANCE.md, Layer 10)."""
    c = Compressor()
    raw = chunk(4)
    blob = c.compress(raw)
    assert c.decompress(blob, len(raw)) == raw
    assert Compressor().decompress(blob) == raw
    assert zlib_calls == {"compress": 1, "inflate": 2}


def test_memo_dies_with_the_last_codec():
    """The RSS guard: nothing in the process pins chunks once no codec
    of the level is left (slimbench collects between replications)."""
    a, b = Compressor(level=3), Compressor(level=3)
    write_chunk(a, batch(5))
    memo = weakref.ref(a.chunk_memo)
    assert b.chunk_memo is a.chunk_memo
    del a
    gc.collect()
    assert memo() is not None and 3 in _MEMOS     # b still holds it
    del b
    gc.collect()
    assert memo() is None and 3 not in _MEMOS
    assert Compressor(level=3).chunk_memo == {}


def test_reverse_map_mirrors_the_memo():
    c = Compressor(level=8)
    for tag in range(3):
        write_chunk(c, batch(tag))
    memo = c.chunk_memo
    assert memo.by_blob == {blob: (raw_len, entries)
                            for entries, (raw_len, blob) in memo.items()}
    memo.clear()
    assert memo == {} and memo.by_blob == {} and memo.nbytes == 0


def test_memo_backstop_clears_when_full(monkeypatch):
    c = Compressor(level=2)
    for tag in range(3):
        write_chunk(c, batch(tag))
    held = c.chunk_memo.nbytes
    assert held == sum(len(blob) for _, blob in c.chunk_memo.values())
    monkeypatch.setattr(c.chunk_memo, "bound", held)
    write_chunk(c, batch(0))        # a hit stores nothing
    assert len(c.chunk_memo) == 3
    # the next blob would cross the bound: the memo starts over with it
    write_chunk(c, batch(9))
    [(raw_len, blob)] = c.chunk_memo.values()
    assert list(c.chunk_memo) == [tuple(batch(9))]
    assert list(c.chunk_memo.by_blob) == [blob]
    assert c.chunk_memo.nbytes == len(blob)


def test_memo_never_holds_more_than_its_bound(monkeypatch):
    """A blob larger than the bound alone is not stored (it used to
    clear the memo and then sit in it, over the bound)."""
    c = Compressor(level=9)
    write_chunk(c, batch(1))
    small = c.chunk_memo.nbytes
    monkeypatch.setattr(c.chunk_memo, "bound", small + 10)
    huge = [(b"big", random.Random(1).randbytes(4096))]  # incompressible
    for entries in (huge, batch(2), huge, batch(3), batch(1)):
        write_chunk(c, entries)
        memo = c.chunk_memo
        assert memo.nbytes <= memo.bound
        assert memo.nbytes == sum(len(b) for _, b in memo.values())
        assert len(memo.by_blob) == len(memo)
        assert tuple(huge) not in memo


def test_wrong_declared_length_is_rejected():
    c = Compressor()
    blob = zlib.compress(chunk(6), 1)
    for wrong in (len(chunk(6)) - 1, len(chunk(6)) + 1, 0):
        with pytest.raises(zlib.error):
            c.decompress(blob, wrong)
    assert c.decompress(blob, len(chunk(6))) == chunk(6)
    assert c.decompress(memoryview(blob), len(chunk(6))) == chunk(6)


def test_truncated_or_trailing_bytes_are_rejected():
    c = Compressor()
    blob = zlib.compress(chunk(7), 1)
    for bad in (blob + b"extra", blob[:-1], b""):
        with pytest.raises(zlib.error):
            c.decompress(bad, len(chunk(7)))


def test_declared_length_bounds_the_inflation():
    """64 MiB of zeros declared as 16 bytes: refused after at most 17
    bytes of output."""
    bomb = zlib.compress(bytes(64 * 1024 * 1024), 1)
    assert len(bomb) < 512 * 1024
    c = Compressor()
    tracemalloc.start()
    try:
        with pytest.raises(zlib.error):
            c.decompress(bomb, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
