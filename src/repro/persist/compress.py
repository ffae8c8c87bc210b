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
from dataclasses import dataclass

from repro.persist.memo import BoundedMemo

__all__ = ["CompressionModel", "Compressor"]

MB = 1024 * 1024


@dataclass(frozen=True)
class CompressionModel:
    """CPU cost model for an LZF-class codec."""

    #: compression throughput (bytes/s of input). Calibrated so the
    #: snapshot is compute-bound relative to the device, as in the
    #: paper (20 GB snapshots take 110-150 s on a ~1.3 GB/s device).
    compress_bandwidth: float = 120 * MB
    #: decompression throughput (bytes/s of output)
    decompress_bandwidth: float = 600 * MB
    #: fixed CPU per compressed object/chunk (call + dispatch overhead)
    per_object_overhead: float = 0.8e-6

    def compress_time(self, raw_len: int, n_objects: int = 1) -> float:
        return raw_len / self.compress_bandwidth + n_objects * self.per_object_overhead

    def decompress_time(self, raw_len: int, n_objects: int = 1) -> float:
        return (
            raw_len / self.decompress_bandwidth
            + n_objects * self.per_object_overhead
        )

    def __post_init__(self) -> None:
        if self.compress_bandwidth <= 0 or self.decompress_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.per_object_overhead < 0:
            raise ValueError("per_object_overhead must be >= 0")


#: bound on the blob bytes one memo holds; a store that would pass it
#: clears the memo first, and a blob larger than it is never stored. One
#: paired slimbench replication stores ~16 MB (``redis_set_gc``), so only
#: a far larger snapshot reaches it.
MEMO_BLOB_BYTES = 64 * MB


class _Memo(BoundedMemo):
    """``(key, value)`` batch -> ``(raw_len, blob)`` at one zlib level,
    sized by ``len(blob)`` and bounded by :data:`MEMO_BLOB_BYTES`, plus
    the reverse map :attr:`by_blob`.

    Keyed by the batch's entries rather than its encoded bytes: the
    entry encoding is injective, so the hits are the same, and a key
    shares the batch's keys and values instead of pinning a copy of the
    raw chunk. ``by_blob`` maps each stored blob back to ``(raw_len,
    batch)``: inflating is a function of the blob alone, so a chunk
    whose blob is byte-equal to one held here decodes to that batch
    (:meth:`RdbReader.read_all <repro.persist.encoding.RdbReader.read_all>`).
    Held weakly by :data:`_MEMOS` and strongly by every enabled
    :class:`Compressor` of the level, so what it holds is freed when the
    last of those codecs is.
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


#: level -> memo. Experiments run their systems in pairs over the same
#: inputs and each system builds its codecs privately, so chunks repeat
#: between instances, not within one.
_MEMOS: weakref.WeakValueDictionary[int, _Memo] = (
    weakref.WeakValueDictionary())


class Compressor:
    """zlib-backed codec with optional passthrough for tests.

    ``zlib.compress`` is a pure function of (bytes, level), so the
    enabled codecs of one level share one :attr:`chunk_memo` for as
    long as any of them is alive, and :meth:`RdbWriter.chunk
    <repro.persist.encoding.RdbWriter.chunk>` deflates a batch once,
    however many systems snapshot it, and :meth:`RdbReader.read_all
    <repro.persist.encoding.RdbReader.read_all>` inflates only blobs it
    does not hold. Only the data plane is shared;
    what a call costs on the simulated clock is charged by the caller
    from :attr:`model`.
    """

    def __init__(self, level: int = 1, enabled: bool = True,
                 model: CompressionModel | None = None):
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be in [0, 9]")
        self.level = level
        self.enabled = enabled
        self.model = model or CompressionModel()
        #: the level's shared chunk memo; ``None`` when disabled
        self.chunk_memo = (_MEMOS.setdefault(level, _Memo())
                           if enabled else None)

    def compress(self, raw: bytes) -> bytes:
        if not self.enabled:
            return raw
        return zlib.compress(raw, self.level)

    def decompress(self, blob: bytes | bytearray | memoryview,
                   raw_len: int | None = None) -> bytes:
        """Inflate ``blob``; raises :class:`zlib.error` if it is not one
        complete zlib stream or, with ``raw_len`` given, inflates to any
        other length. Output is capped at ``raw_len + 1`` bytes, so a
        hostile length field cannot buy an unbounded allocation.
        """
        if not self.enabled:
            return bytes(blob)
        if raw_len is None:
            return zlib.decompress(blob)
        inflater = zlib.decompressobj()
        raw = inflater.decompress(blob, raw_len + 1)
        if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
            raise zlib.error(f"blob is not one zlib stream of {raw_len} "
                             "inflated bytes")
        return raw

    def ratio(self, raw: bytes) -> float:
        """Compressed/raw size for this payload (1.0 if disabled)."""
        if not raw:
            return 1.0
        return len(self.compress(raw)) / len(raw)
