"""A memo bounded by the bytes it holds, not by its entries.

Three pure functions memoize their results in one: the snapshot chunk
codec (:mod:`repro.persist.compress`), the front end's RESP frame
decoder (:class:`repro.net.frontend.NetFrontend`) and
:func:`repro.workloads.keys.make_value`. Their callers size each entry
in bytes; what survives a run is at most the bound, however many
distinct results it drew.
"""

from __future__ import annotations

__all__ = ["BoundedMemo"]


class BoundedMemo(dict):
    """``dict`` holding at most ``bound`` bytes of entries.

    A :meth:`store` that would cross the bound clears the memo first,
    and an entry larger than the bound is never stored.
    """

    __slots__ = ("bound", "nbytes")

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound
        #: sum of the sizes of the entries held
        self.nbytes = 0

    def store(self, key, value, size: int) -> bool:
        """Hold ``value`` under ``key`` as ``size`` bytes; returns
        whether it was stored."""
        if size > self.bound:
            return False
        if self.nbytes + size > self.bound:
            self.clear()
        self[key] = value
        self.nbytes += size
        return True

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0
