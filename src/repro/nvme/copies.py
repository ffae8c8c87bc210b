"""Host copies of the WAL and snapshot data planes, counted in bytes.

A byte a server logs or snapshots is copied on the host on its way to a
device page or a page-cache page. The stages that copy, in chain order:

* ``record_encode``: an AOF record or an RDB chunk framed into one
  ``bytes`` (:meth:`AofCodec.encode
  <repro.persist.encoding.AofCodec.encode>`, :meth:`RdbWriter.chunk
  <repro.persist.encoding.RdbWriter.chunk>`);
* ``sink_join``: the baseline's ``write()`` user buffer (the AOF sink's
  join of a drained batch, the snapshot sink's 8 KiB rio buffer);
* ``page_build``: SlimIO's device pages cut from staged bytes, with the
  re-written tail of a partial page and the zero padding;
* ``pagecache_copy_in``: ``write()`` copying into page-cache pages, with
  the copy-on-write of a shared page it changes in part;
* ``writeback_snapshot``: writeback's immutable copy of a page a write
  changed in part (a page written whole is already immutable).

Like :func:`repro.persist.compress.tallies`, these are process-wide and
never booked in a ``MetricsRegistry``: read two and take the
difference.
"""

from __future__ import annotations

__all__ = ["STAGES", "copy_tallies", "cut_runs"]

STAGES = ("record_encode", "sink_join", "page_build", "pagecache_copy_in",
          "writeback_snapshot")

#: bytes copied per stage since import, read with :func:`copy_tallies`
_COPIED = dict.fromkeys(STAGES, 0)


def copy_tallies() -> dict[str, int]:
    """Bytes each stage of :data:`STAGES` copied, process-wide, since
    import."""
    return dict(_COPIED)


def cut_runs(parts: list, size: int) -> tuple[list[bytes], list]:
    """Lay the byte strings ``parts`` end to end and cut them into
    ``size``-byte runs.

    Returns the whole runs, each a ``bytes`` into which every byte is
    copied once, and the rest (fewer than ``size`` bytes: the non-empty
    parts and ``memoryview`` slices of them that no run took, uncopied;
    empty when the parts fill whole runs).
    """
    runs: list[bytes] = []
    cur: list = []  # pieces of the run being filled
    room = size
    for part in parts:
        n = len(part)
        if not n:
            continue
        if n < room:
            cur.append(part)
            room -= n
            continue
        view = memoryview(part)
        cur.append(view[:room])
        runs.append(b"".join(cur))
        pos = room
        while n - pos >= size:
            runs.append(view[pos:pos + size].tobytes())
            pos += size
        cur = [view[pos:]] if pos < n else []
        room = size - (n - pos)
    return runs, cur
