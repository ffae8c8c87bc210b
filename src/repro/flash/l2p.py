"""Preallocated logical↔physical mapping state for the FTL hot path.

The FTL's per-page bookkeeping is touched on every host write, GC
copy, and TRIM. Two access patterns with opposite needs share it:

* **scalar** — ``_reclaim``/``_copy_window`` and the segment
  bookkeeping read and write one entry at a time. Indexing a numpy
  array from Python boxes every element into an ``np.int64`` (and
  unboxes on store) — several times the cost of a plain buffer access.
* **vector** — burst mapping, TRIM, victim selection, and the
  invariant checker want whole-array numpy semantics
  (``np.subtract.at``, fancy indexing, masks).

:class:`IntVec` serves both from one preallocated ``array`` buffer: a
``memoryview`` for O(1) unboxed scalar access and a zero-copy
``np.frombuffer`` view for vector math. There is a single source of
truth — writes through either personality are visible to the other —
and the buffer never reallocates, so GB-scale maps cost exactly
``n * itemsize`` bytes with no per-op allocation.

:class:`L2PMap` packages the forward and reverse page maps on top;
``tests/flash/test_l2p.py`` replays traces through it and a
dict-of-ints reference.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["IntVec", "L2PMap"]


class IntVec:
    """Fixed-size numeric vector with scalar and vector personalities.

    ``vec.mv[i]`` (memoryview) for hot scalar reads/writes;
    ``vec.np`` (ndarray view over the same bytes) for vectorized
    operations. ``typecode`` follows the :mod:`array` module ('q' =
    int64, 'i' = int32, 'b' = int8, 'd' = float64).
    """

    __slots__ = ("buf", "mv", "np")

    def __init__(self, n: int, fill=0, typecode: str = "q"):
        if n < 0:
            raise ValueError(f"negative IntVec size {n}")
        self.buf = array(typecode, [fill]) * n
        self.mv = memoryview(self.buf)
        self.np = np.frombuffer(self.buf, dtype=np.dtype(typecode))

    def __len__(self) -> int:
        return len(self.buf)


class L2PMap:
    """Forward (lpn→ppn) and reverse (ppn→lpn) page maps, -1 = unmapped.

    Exposes the raw personalities — ``fwd``/``rev`` memoryviews and
    ``fwd_np``/``rev_np`` ndarray views — so the FTL's scalar paths
    and vector paths each use the cheapest access for the job. The
    convenience methods below exist for the equivalence test and for
    callers that don't care about the last nanosecond.
    """

    __slots__ = ("num_lpns", "num_ppns", "_fwd", "_rev",
                 "fwd", "rev", "fwd_np", "rev_np")

    def __init__(self, num_lpns: int, num_ppns: int):
        self.num_lpns = num_lpns
        self.num_ppns = num_ppns
        self._fwd = IntVec(num_lpns, fill=-1, typecode="q")
        self._rev = IntVec(num_ppns, fill=-1, typecode="q")
        self.fwd = self._fwd.mv
        self.rev = self._rev.mv
        self.fwd_np = self._fwd.np
        self.rev_np = self._rev.np

    # ------------------------------------------------------------ scalar ops
    def lookup(self, lpn: int) -> int:
        """Physical page of ``lpn`` (-1 if unmapped)."""
        return self.fwd[lpn]

    def rlookup(self, ppn: int) -> int:
        """Logical page stored at ``ppn`` (-1 if invalid)."""
        return self.rev[ppn]

    def map(self, lpn: int, ppn: int) -> int:
        """Point ``lpn`` at ``ppn``; returns the superseded ppn (-1 if
        the lpn was unmapped). The superseded physical page's reverse
        entry is cleared — its segment-valid accounting is the FTL's
        job, not the map's."""
        old = self.fwd[lpn]
        if old >= 0:
            self.rev[old] = -1
        self.fwd[lpn] = ppn
        self.rev[ppn] = lpn
        return old

    def unmap(self, lpn: int) -> int:
        """TRIM one lpn; returns the freed ppn (-1 if it was unmapped)."""
        old = self.fwd[lpn]
        if old >= 0:
            self.rev[old] = -1
            self.fwd[lpn] = -1
        return old

    # ------------------------------------------------------------ snapshots
    def to_dict(self) -> dict[int, int]:
        """Forward map as a dict (mapped entries only) — test helper."""
        mapped = np.flatnonzero(self.fwd_np >= 0)
        return {int(l): int(p) for l, p in zip(mapped, self.fwd_np[mapped])}

