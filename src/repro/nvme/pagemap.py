"""Page storage a system handle can release.

A device's sparse page map and a page cache's pages are the bulk of a
system's host memory. The system handle that built them releases them
when it is freed after ``stop()`` (see ``repro.core.engine``), so a
finished system's pages go by reference counting, not at the next
full collection. A released map is empty, and reading or writing it
raises :class:`ReleasedError`: a never-written page of a live device
reads as zeros, and a freed one must not read the same way.
"""

from __future__ import annotations

import weakref

__all__ = ["PageMap", "ReleasedError", "release_when_freed"]


class ReleasedError(RuntimeError):
    """I/O against pages a stopped, freed system handle released."""


class PageMap(dict):
    """``{index: page}``, plus the mark :meth:`release` sets."""

    __slots__ = ("released",)

    def __init__(self) -> None:
        super().__init__()
        self.released = False

    def release(self) -> None:
        """Drop every page; from now on :meth:`check` raises."""
        self.clear()
        self.released = True

    def check(self) -> None:
        """Raise :class:`ReleasedError` if the map was released."""
        if self.released:
            raise ReleasedError(
                "pages of a stopped system were released when its handle "
                "was freed"
            )


def _release(*maps: PageMap) -> None:
    for pages in maps:
        pages.release()


def release_when_freed(handle, *maps: PageMap) -> weakref.finalize:
    """Release ``maps`` as soon as ``handle`` is freed. The finalizer
    holds the maps alone, never a component, so it keeps nothing of the
    system alive; it does not run at interpreter exit."""
    finalizer = weakref.finalize(handle, _release, *maps)
    finalizer.atexit = False
    return finalizer
