"""Flash geometry and NAND timing parameters.

Defaults mirror the paper's FEMU configuration (§5.1): 8 channels,
8 dies per channel, 4 KiB NAND pages, page read 40 µs, page program
200 µs, block erase 2 ms. The paper's device is 180 GB with 1 GiB
Reclaim Units; tests and benches use proportionally scaled geometries
(every knob below is public).

The FTL operates on *segments*: a segment takes one physical block from
every die, and consecutive pages of a segment stripe round-robin across
the dies, so sequential writes enjoy full die-level parallelism — the
same layout FEMU calls a superblock.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NandTiming", "FlashGeometry"]

US = 1e-6
MS = 1e-3


@dataclass(frozen=True)
class NandTiming:
    """NAND operation latencies in seconds (FEMU v9.0 defaults)."""

    page_read: float = 40 * US
    page_program: float = 200 * US
    block_erase: float = 2 * MS
    #: time to move one page across the channel bus (4 KiB at ~1.2 GB/s)
    channel_transfer: float = 3.3 * US

    def __post_init__(self) -> None:
        for name in ("page_read", "page_program", "block_erase", "channel_transfer"):
            if not getattr(self, name) >= 0:  # NaN-safe
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class FlashGeometry:
    """Physical layout of the emulated device."""

    channels: int = 8
    dies_per_channel: int = 8
    blocks_per_die: int = 64
    pages_per_block: int = 256
    page_size: int = 4096

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "dies_per_channel",
            "blocks_per_die",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    # -- derived sizes -------------------------------------------------------
    @property
    def total_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def segments(self) -> int:
        """Number of segments (superblocks): one block from every die."""
        return self.blocks_per_die

    @property
    def pages_per_segment(self) -> int:
        return self.pages_per_block * self.total_dies

    @property
    def segment_bytes(self) -> int:
        return self.pages_per_segment * self.page_size

    @property
    def total_pages(self) -> int:
        return self.segments * self.pages_per_segment

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size

    # -- address mapping -------------------------------------------------------
    def die_of_page(self, ppn: int) -> int:
        """Physical page → die index (round-robin stripe within segment)."""
        return ppn % self.total_dies

    def channel_of_die(self, die: int) -> int:
        return die // self.dies_per_channel

    def segment_of_page(self, ppn: int) -> int:
        return ppn // self.pages_per_segment

    def page_offset_in_segment(self, ppn: int) -> int:
        return ppn % self.pages_per_segment

    def first_page_of_segment(self, seg: int) -> int:
        return seg * self.pages_per_segment

    @staticmethod
    def scaled(mb: int = 64, channels: int = 2, dies_per_channel: int = 2,
               pages_per_block: int = 64, page_size: int = 4096) -> FlashGeometry:
        """Convenience: a small geometry of roughly ``mb`` MiB.

        Used by tests and scaled benchmark runs; keeps the channel/die
        parallelism structure while shrinking capacity.
        """
        total_dies = channels * dies_per_channel
        seg_bytes = pages_per_block * total_dies * page_size
        segments = max(4, (mb * 1024 * 1024) // seg_bytes)
        return FlashGeometry(
            channels=channels,
            dies_per_channel=dies_per_channel,
            blocks_per_die=segments,
            pages_per_block=pages_per_block,
            page_size=page_size,
        )
