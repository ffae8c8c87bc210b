"""NAND flash + FTL emulator (the FEMU substitute).

The paper evaluates on an FDP SSD emulated with FEMU v9.0. FEMU is a
timing model layered over host DRAM; this package re-implements the
same model natively on the discrete-event engine:

* :mod:`repro.flash.geometry` — channels × dies × blocks × pages plus
  FEMU's default NAND latencies (read 40 µs, program 200 µs, erase 2 ms).
* :mod:`repro.flash.nand` — per-die and per-channel occupancy, which is
  where GC-vs-host interference physically happens.
* :mod:`repro.flash.ftl` — a page-mapped FTL over *segments*
  (superblocks striped across all dies) with greedy garbage collection
  and write-amplification accounting. Streams are first-class: the
  conventional SSD is the 1-stream instance, the FDP SSD maps each
  Placement ID to its own stream whose segments form Reclaim Units.
"""

from repro.flash.geometry import FlashGeometry, NandTiming
from repro.flash.nand import NandArray
from repro.flash.ftl import (
    FlashTranslationLayer,
    FtlConfig,
    FtlStats,
    WriteWindow,
)
from repro.flash.wear import WearReport, wear_report

__all__ = [
    "FlashGeometry",
    "NandTiming",
    "NandArray",
    "FlashTranslationLayer",
    "FtlConfig",
    "FtlStats",
    "WriteWindow",
    "WearReport",
    "wear_report",
]
