"""Compression: real bytes, modeled CPU cost.

Redis compresses snapshot objects with LZF. Here the *data plane* uses
zlib (stdlib, deterministic, round-trips exactly) while the *time
plane* charges CPU from a calibrated model — LZF-class bandwidth plus a
per-object overhead. The per-object overhead is what makes the YCSB-A
snapshot (many small values) slower than the redis-benchmark snapshot
(fewer large values), as in the paper's §5.2 snapshot-time discussion.
"""

from __future__ import annotations

import weakref
import zlib

from repro.persist.memo import BoundedMemo

__all__ = ["Compressor", "compress_time", "decompress_time"]

MB = 1024 * 1024


#: the one zlib level every codec compresses at (fast, LZF-class ratio)
LEVEL = 1
#: compression throughput (bytes/s of input). Calibrated so the
#: snapshot is compute-bound relative to the device, as in the paper
#: (20 GB snapshots take 110-150 s on a ~1.3 GB/s device).
COMPRESS_BANDWIDTH = 120 * MB
#: decompression throughput (bytes/s of output)
DECOMPRESS_BANDWIDTH = 600 * MB
#: fixed CPU per compressed object/chunk (call + dispatch overhead)
PER_OBJECT_OVERHEAD = 0.8e-6


def compress_time(raw_len: int, n_objects: int = 1) -> float:
    """Modeled CPU seconds to compress ``raw_len`` bytes in
    ``n_objects`` calls."""
    return raw_len / COMPRESS_BANDWIDTH + n_objects * PER_OBJECT_OVERHEAD


def decompress_time(raw_len: int, n_objects: int = 1) -> float:
    """Modeled CPU seconds to inflate ``raw_len`` bytes in
    ``n_objects`` calls."""
    return raw_len / DECOMPRESS_BANDWIDTH + n_objects * PER_OBJECT_OVERHEAD


#: bound on the blob bytes one memo holds; a store that would pass it
#: clears the memo first, and a blob larger than it is never stored. One
#: paired slimbench replication stores ~16 MB (``redis_set_gc``), so only
#: a far larger snapshot reaches it.
MEMO_BLOB_BYTES = 64 * MB


class _Memo(BoundedMemo):
    """``(key, value)`` batch -> ``(raw_len, blob)`` at :data:`LEVEL`,
    sized by ``len(blob)`` and bounded by :data:`MEMO_BLOB_BYTES`, plus
    the reverse map :attr:`by_blob`.

    Keyed by the batch's entries rather than its encoded bytes: the
    entry encoding is injective, so the hits are the same, and a key
    shares the batch's keys and values instead of pinning a copy of the
    raw chunk. ``by_blob`` maps each stored blob back to ``(raw_len,
    batch)``: inflating is a function of the blob alone, so a chunk
    whose blob is byte-equal to one held here decodes to that batch
    (:meth:`RdbReader.feed <repro.persist.encoding.RdbReader.feed>`).
    Held weakly by :data:`_MEMOS` and strongly by every
    :class:`Compressor`, so what it holds is freed when the last codec
    is.
    """

    __slots__ = ("__weakref__", "by_blob")

    def __init__(self) -> None:
        super().__init__(MEMO_BLOB_BYTES)
        #: blob -> ``(raw_len, batch)``, the same entries as the dict
        self.by_blob: dict[bytes, tuple[int, tuple]] = {}

    def store(self, batch: tuple, value: tuple[int, bytes],
              size: int) -> bool:
        stored = super().store(batch, value, size)
        if stored:
            raw_len, blob = value
            self.by_blob[blob] = (raw_len, batch)
        return stored

    def clear(self) -> None:
        super().clear()
        self.by_blob.clear()


#: level -> memo: the one :data:`LEVEL` entry while any codec holds it.
#: Experiments run their systems in pairs over the same inputs and each
#: system builds its codecs privately, so chunks repeat between
#: instances, not within one.
_MEMOS: weakref.WeakValueDictionary[int, _Memo] = (
    weakref.WeakValueDictionary())


class Compressor:
    """zlib-backed codec at :data:`LEVEL`.

    ``zlib.compress`` is a pure function of (bytes, level), so all live
    codecs share one :attr:`chunk_memo` for as long as any of them is
    alive, and :meth:`RdbWriter.chunk
    <repro.persist.encoding.RdbWriter.chunk>` deflates a batch once,
    however many systems snapshot it, and :meth:`RdbReader.feed
    <repro.persist.encoding.RdbReader.feed>` inflates only blobs it
    does not hold. Only the data plane is shared; what a call costs on
    the simulated clock is charged by the caller from
    :func:`compress_time` / :func:`decompress_time`.
    """

    def __init__(self) -> None:
        #: the shared chunk memo
        self.chunk_memo = _MEMOS.setdefault(LEVEL, _Memo())

    def compress(self, raw: bytes) -> bytes:
        return zlib.compress(raw, LEVEL)

    def decompress(self, blob: bytes | bytearray | memoryview,
                   raw_len: int | None = None) -> bytes:
        """Inflate ``blob``; raises :class:`zlib.error` if it is not one
        complete zlib stream or, with ``raw_len`` given, inflates to any
        other length. Output is capped at ``raw_len + 1`` bytes, so a
        hostile length field cannot buy an unbounded allocation.
        """
        if raw_len is None:
            return zlib.decompress(blob)
        inflater = zlib.decompressobj()
        raw = inflater.decompress(blob, raw_len + 1)
        if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
            raise zlib.error(f"blob is not one zlib stream of {raw_len} "
                             "inflated bytes")
        return raw

    def ratio(self, raw: bytes) -> float:
        """Compressed/raw size for this payload."""
        if not raw:
            return 1.0
        return len(self.compress(raw)) / len(raw)
