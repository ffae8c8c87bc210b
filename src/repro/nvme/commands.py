"""NVMe command records.

One LBA equals one NAND page (4 KiB by default geometry); byte-granular
callers (the WAL appender, the snapshot writer) do their own
read-modify-write or buffering above this layer, as real passthru
applications must.

The page is also the unit of the data plane. A write carries a list of
``nlb`` immutable page objects, which the device stores as they are; a
read completes with the device's own stored page objects, never a
joined buffer. A caller that holds one contiguous buffer splits it with
:func:`split_pages`, and a caller that needs one joins the completion
once (``b"".join(pages)``).

``WriteCmd.pid`` is the FDP Placement Identifier attached to the write
(NVMe directive). On a conventional device it is ignored; on an FDP
device it selects the Reclaim-Unit stream.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NvmeCommand", "ReadCmd", "WriteCmd", "DeallocateCmd",
           "split_pages"]


def split_pages(data, page_size: int) -> list[bytes]:
    """A page-aligned buffer as a write payload: one ``bytes`` per page,
    each byte copied once (a ``bytes`` page run is sliced, anything else
    is sliced through a ``memoryview``)."""
    if len(data) % page_size:
        raise ValueError(
            f"data length {len(data)} not a multiple of the page "
            f"({page_size}); pad upstream"
        )
    steps = range(0, len(data), page_size)
    if type(data) is bytes:
        return [data[i : i + page_size] for i in steps]
    with memoryview(data) as view:
        return [view[i : i + page_size].tobytes() for i in steps]


@dataclass
class NvmeCommand:
    """Base command: an LBA extent."""

    lba: int
    nlb: int  # number of logical blocks

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError("negative lba")
        if self.nlb < 1:
            raise ValueError("nlb must be >= 1")


@dataclass
class ReadCmd(NvmeCommand):
    """Read ``nlb`` blocks starting at ``lba``; completes with a list of
    ``nlb`` page objects."""


@dataclass
class WriteCmd(NvmeCommand):
    """Write ``data`` (a list of exactly ``nlb`` page-sized ``bytes``) at
    ``lba``.

    ``data`` may be None for timing-only traffic (e.g. synthetic GC
    pressure generators); the device then stores a zero page.
    """

    data: list[bytes] | None = None
    pid: int = 0  # FDP placement identifier

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pid < 0:
            raise ValueError("negative pid")


@dataclass
class DeallocateCmd(NvmeCommand):
    """TRIM an extent: drop mapping and stored data."""
