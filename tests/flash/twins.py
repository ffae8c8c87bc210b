"""Test-side reference twins for ``repro.flash``.

Nothing here runs in production. ``repro.flash`` keeps one host path
(``write_burst`` / ``read_burst``: chunked placement, vectorized
mapping, closed-form NAND bursts) and one array-backed page map; these
are the obvious realizations those stand in for, kept so the tests can
diff the two:

* :func:`write` / :func:`read` / :func:`_place` / :func:`_map_one` —
  the page-at-a-time host path that used to live on
  ``FlashTranslationLayer``, moved here as functions over an FTL
  instance. The bodies are the old methods' (``self`` -> ``ftl``); the
  two booking lines go to the registry counters, the only ledger the
  FTL has, and a single-page program is spelt as the one-page burst
  the removed ``NandArray.program_page`` wrapper issued.
* :class:`DictL2P` — dict-of-ints page map with ``L2PMap``'s operation
  contract.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.flash.ftl import ROLE_HOST, SEG_FULL, FlashTranslationLayer


def write(ftl: FlashTranslationLayer, lpn: int, stream_id: int) -> Generator:
    """Host page write (a simulation generator).

    Maps the page into the stream's open segment and pays the NAND
    program plus any allocation stall while the device is out of free
    segments.
    """
    ftl._check_lpn(lpn)
    if stream_id not in ftl._streams:
        raise ValueError(f"unknown stream {stream_id}")
    rt = ftl.rtrace
    t0 = ftl.env.now
    ppn = yield from _place(ftl, lpn, stream_id, ROLE_HOST)
    stall = ftl.env.now - t0
    ftl._obs_stall_time.inc(stall)
    if rt is not None and stall > 0:
        rt.add_span("ftl_alloc_stall", "ftl", t0, ftl.env.now,
                    stream=stream_id)
    t1 = ftl.env.now
    yield ftl.nand.program_pages([ppn])
    if rt is not None:
        rt.add_span("nand_program", "nand", t1, ftl.env.now,
                    stream=stream_id, pages=1)
    ftl._obs_host[stream_id].inc()


def read(ftl: FlashTranslationLayer, lpn: int) -> Generator:
    """Host page read; unmapped pages cost nothing (returned zeroed)."""
    ftl._check_lpn(lpn)
    ppn = ftl._l2p_mv[lpn]
    if ppn < 0:
        return False
    yield ftl.nand.read_pages([ppn])
    return True


def _place(ftl: FlashTranslationLayer, lpn: int, stream_id: int,
           role: int) -> Generator:
    """Assign a physical page; returns the ppn (mapping is atomic)."""
    stream = ftl._streams[stream_id]
    lock = stream.place_locks[role].request()
    yield lock
    try:
        seg = stream.open_segment[role]
        if (
            seg is None
            or stream.write_ptr[role] >= ftl.geometry.pages_per_segment
        ):
            if seg is not None:
                ftl._seg_state_mv[seg] = SEG_FULL
                stream.open_segment[role] = None
                ftl._maybe_kick_gc()
            seg = yield from ftl._alloc_segment(stream_id, role)
            stream.open_segment[role] = seg
            stream.write_ptr[role] = 0
        ppn = (
            ftl.geometry.first_page_of_segment(seg)
            + stream.write_ptr[role]
        )
        stream.write_ptr[role] += 1
    finally:
        stream.place_locks[role].release(lock)

    _map_one(ftl, lpn, ppn)
    return ppn


def _map_one(ftl: FlashTranslationLayer, lpn: int, ppn: int) -> None:
    old = ftl._map.map(lpn, ppn)
    if old >= 0:
        ftl._seg_valid_mv[ftl.geometry.segment_of_page(old)] -= 1
        ftl._on_invalidation()
    ftl._seg_valid_mv[ftl.geometry.segment_of_page(ppn)] += 1


class DictL2P:
    """Dict-backed reference with the same operation contract.

    Kept deliberately naive: the equivalence test replays a randomized
    trace through both implementations and compares after every
    operation, so any divergence in the array fast path shows up with
    the offending op attached.
    """

    __slots__ = ("num_lpns", "num_ppns", "_fwd", "_rev")

    def __init__(self, num_lpns: int, num_ppns: int):
        self.num_lpns = num_lpns
        self.num_ppns = num_ppns
        self._fwd: dict[int, int] = {}
        self._rev: dict[int, int] = {}

    def lookup(self, lpn: int) -> int:
        return self._fwd.get(lpn, -1)

    def rlookup(self, ppn: int) -> int:
        return self._rev.get(ppn, -1)

    def map(self, lpn: int, ppn: int) -> int:
        old = self._fwd.get(lpn, -1)
        if old >= 0:
            del self._rev[old]
        self._fwd[lpn] = ppn
        self._rev[ppn] = lpn
        return old

    def unmap(self, lpn: int) -> int:
        old = self._fwd.pop(lpn, -1)
        if old >= 0:
            del self._rev[old]
        return old

    def to_dict(self) -> dict[int, int]:
        return dict(self._fwd)
