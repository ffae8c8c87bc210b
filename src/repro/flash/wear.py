"""Wear and endurance accounting over an FTL.

The paper's WAF = 1.00 claim is ultimately an endurance claim: no
internal copies means every host byte costs exactly one program cycle.
This module turns the FTL's erase counters into the metrics an
endurance analysis uses — total program/erase cycles, wear skew across
segments, and a projected device lifetime at a given workload rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.ftl import FlashTranslationLayer

__all__ = ["WearReport", "wear_report"]


@dataclass(frozen=True)
class WearReport:
    """Endurance view of one FTL's history."""

    total_erases: int
    mean_erases_per_segment: float
    max_erases: int
    min_erases: int
    #: max/mean — 1.0 is perfectly levelled
    wear_skew: float
    waf: float
    host_bytes_written: int
    #: bytes of NAND programmed per host byte (== WAF)
    write_cost: float
    #: host bytes writable before any segment exceeds ``endurance_cycles``
    remaining_host_bytes: float

    def lifetime_multiplier(self, other: WearReport) -> float:
        """How much longer this device lasts vs ``other`` at equal load
        (ratio of their write costs, the paper's lifespan argument)."""
        if self.write_cost == 0:
            return float("inf")
        return other.write_cost / self.write_cost


def wear_report(ftl: FlashTranslationLayer,
                endurance_cycles: int = 3000) -> WearReport:
    """Summarize wear for ``ftl`` assuming ``endurance_cycles`` P/E."""
    if endurance_cycles < 1:
        raise ValueError("endurance_cycles must be >= 1")
    erases = ftl._seg_erase_count.astype(np.int64)
    total = int(erases.sum())
    mean = float(erases.mean()) if erases.size else 0.0
    mx = int(erases.max()) if erases.size else 0
    mn = int(erases.min()) if erases.size else 0
    skew = (mx / mean) if mean > 0 else 1.0
    waf = ftl.lifetime.waf()
    page = ftl.geometry.page_size
    host_bytes = ftl.lifetime.pages()[0] * page

    # lifetime projection: cycles left on the most-worn segment, scaled
    # by how efficiently host bytes translate into programs
    seg_bytes = ftl.geometry.segment_bytes
    cycles_left = max(endurance_cycles - mx, 0)
    remaining = cycles_left * seg_bytes * ftl.geometry.segments / max(waf, 1e-9)

    return WearReport(
        total_erases=total,
        mean_erases_per_segment=mean,
        max_erases=mx,
        min_erases=mn,
        wear_skew=skew,
        waf=waf,
        host_bytes_written=host_bytes,
        write_cost=waf,
        remaining_host_bytes=remaining,
    )
