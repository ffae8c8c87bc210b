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

__all__ = ["Compressor", "compress_time", "decompress_time", "tallies"]

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
#: clears the memo first, and a blob larger than it is never stored. The
#: memo holds live snapshot generations only (26 chunks, 1.7 MB, when
#: the SlimIO system of a ``redis_set_gc`` slimbench replication
#: recovers), so only a process that runs many systems, each leaving
#: its latest generations behind, reaches it.
MEMO_BLOB_BYTES = 64 * MB

#: the process's zlib work and what the memo saved it, read with
#: :func:`tallies`
_TALLY = dict.fromkeys(
    ("deflate_calls", "deflate_in_bytes", "inflate_calls",
     "inflate_out_bytes", "writer_hits", "reader_hits"), 0)


def tallies() -> dict[str, int]:
    """Process-wide counts since import: deflate calls and input bytes,
    inflate calls and output bytes, chunks :meth:`RdbWriter.chunk
    <repro.persist.encoding.RdbWriter.chunk>` took from the memo and
    blobs :meth:`RdbReader.feed <repro.persist.encoding.RdbReader.feed>`
    decoded from it.

    What one system deflates depends on what else the process ran, so
    these are never booked in a ``MetricsRegistry``: read two and take
    the difference.
    """
    return dict(_TALLY)


class _Memo(BoundedMemo):
    """``(key, value)`` batch -> ``(raw_len, blob)`` at :data:`LEVEL`,
    sized by ``len(blob)`` and bounded by :data:`MEMO_BLOB_BYTES`, plus
    the reverse map :attr:`by_blob` and the generation counts
    :attr:`refs`.

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

    A held batch is counted in :attr:`refs` once per snapshot
    generation that holds it (:meth:`Compressor.hold`), and leaves with
    its blob when the last of them is released. A batch no generation
    ever held (a writer with no owner) stays until the backstop, which
    clears the counts too: a generation that then releases a batch
    another one stored again since only costs that one a later hit.
    """

    __slots__ = ("__weakref__", "by_blob", "refs")

    def __init__(self) -> None:
        super().__init__(MEMO_BLOB_BYTES)
        #: blob -> ``(raw_len, batch)``, the same entries as the dict
        self.by_blob: dict[bytes, tuple[int, tuple]] = {}
        #: held batch -> how many generations hold it
        self.refs: dict[tuple, int] = {}

    def store(self, batch: tuple, value: tuple[int, bytes],
              size: int) -> bool:
        stored = super().store(batch, value, size)
        if stored:
            raw_len, blob = value
            self.by_blob[blob] = (raw_len, batch)
        return stored

    def release(self, batches: list[tuple]) -> None:
        """Drop one generation's count of each of ``batches``, and the
        entries no generation holds any more."""
        refs = self.refs
        for batch in batches:
            n = refs.get(batch)
            if n is None:
                continue  # cleared by the backstop since it was held
            if n > 1:
                refs[batch] = n - 1
                continue
            del refs[batch]
            _, blob = self.pop(batch)
            del self.by_blob[blob]
            self.nbytes -= len(blob)

    def clear(self) -> None:
        super().clear()
        self.by_blob.clear()
        self.refs.clear()


#: level -> memo: the one :data:`LEVEL` entry while any codec holds it.
#: Experiments run their systems in pairs over the same inputs and each
#: system builds its codecs privately, so chunks repeat between
#: instances, not within one.
_MEMOS: weakref.WeakValueDictionary[int, _Memo] = (
    weakref.WeakValueDictionary())


def _release_writing(codec_vars: dict) -> None:
    """Release every generation a dropped :class:`Compressor` (given
    by its ``vars()``) was writing."""
    writing = codec_vars["_writing"]
    for batches in writing.values():
        codec_vars["chunk_memo"].release(batches)
    writing.clear()


class Compressor:
    """zlib-backed codec at :data:`LEVEL`.

    ``zlib.compress`` is a pure function of (bytes, level), so all live
    codecs share one :attr:`chunk_memo` for as long as any of them is
    alive, and :meth:`RdbWriter.chunk
    <repro.persist.encoding.RdbWriter.chunk>` deflates a batch at most
    once while a live generation holds it, however many systems
    snapshot it, and :meth:`RdbReader.feed
    <repro.persist.encoding.RdbReader.feed>` inflates only blobs it
    does not hold. Only the data plane is shared; what a call costs on
    the simulated clock is charged by the caller from
    :func:`compress_time` / :func:`decompress_time`.

    A codec owns snapshot generations, one line of them per owner (a
    server's codec, one per :class:`~repro.persist.snapshot.SnapshotKind`:
    one sink each, publishing one snapshot at a time). An owner holds
    the chunks of its latest published snapshot and of the one being
    written, as §4.1's slots do: :meth:`publish` releases the
    generation a durable snapshot supersedes, :meth:`discard` the one
    being written. A codec's last published generations outlive it, so
    a finished system's latest snapshot still hits for its pair
    partner; the backstop bounds what finished systems leave. Its
    generations being written die with it.
    """

    def __init__(self) -> None:
        #: the shared chunk memo
        self.chunk_memo = _MEMOS.setdefault(LEVEL, _Memo())
        #: owner -> batches of its published generation
        self._published: dict[object, list[tuple]] = {}
        #: owner -> batches of its generation being written
        self._writing: dict[object, list[tuple]] = {}
        # nothing finishes a dropped codec's snapshots being written
        # (a child cut by a power loss): they go with it, from the memo
        # it holds when it dies
        weakref.finalize(self, _release_writing, vars(self))

    def hold(self, owner: object, batch: tuple) -> None:
        """Count ``batch`` in ``owner``'s generation being written, if
        the memo holds it."""
        memo = self.chunk_memo
        if batch in memo:
            memo.refs[batch] = memo.refs.get(batch, 0) + 1
            self._writing.setdefault(owner, []).append(batch)

    def publish(self, owner: object) -> None:
        """``owner``'s snapshot is durable: it becomes the published
        generation and the one it supersedes is released."""
        self.chunk_memo.release(self._published.pop(owner, []))
        self._published[owner] = self._writing.pop(owner, [])

    def discard(self, owner: object) -> None:
        """Release ``owner``'s generation being written (aborted, or
        left behind by a power cut); the published one stays."""
        self.chunk_memo.release(self._writing.pop(owner, []))

    def compress(self, raw: bytes) -> bytes:
        _TALLY["deflate_calls"] += 1
        _TALLY["deflate_in_bytes"] += len(raw)
        return zlib.compress(raw, LEVEL)

    def decompress(self, blob: bytes | bytearray | memoryview,
                   raw_len: int | None = None) -> bytes:
        """Inflate ``blob``; raises :class:`zlib.error` if it is not one
        complete zlib stream or, with ``raw_len`` given, inflates to any
        other length. Output is capped at ``raw_len + 1`` bytes, so a
        hostile length field cannot buy an unbounded allocation.
        """
        _TALLY["inflate_calls"] += 1
        if raw_len is None:
            raw = zlib.decompress(blob)
            _TALLY["inflate_out_bytes"] += len(raw)
            return raw
        inflater = zlib.decompressobj()
        raw = inflater.decompress(blob, raw_len + 1)
        _TALLY["inflate_out_bytes"] += len(raw)
        if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
            raise zlib.error(f"blob is not one zlib stream of {raw_len} "
                             "inflated bytes")
        return raw

    def ratio(self, raw: bytes) -> float:
        """Compressed/raw size for this payload."""
        if not raw:
            return 1.0
        return len(self.compress(raw)) / len(raw)
