"""LBA partitions: carving one namespace into per-tenant windows.

Multi-tenant deployments (``repro.cluster``) put several SlimIO
instances on one physical device. Each instance owns a contiguous LBA
range and must be unable to touch its neighbours' ranges — exactly the
contract an NVM subsystem gives namespaces, modeled here as a thin
offset-and-bounds view over one :class:`~repro.nvme.device.NvmeDevice`.

The partition exposes the same surface the I/O stack consumes
(``submit``, ``lba_size``, ``num_lbas``, ``pages``, ``peek``,
``written_lbas``)
so rings, file systems, and the offline verifier work unchanged on a
partition; timing, FTL state, and GC remain shared — that sharing is
the cross-tenant interference the cluster experiments measure.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Generator

from repro.nvme.commands import DeallocateCmd, NvmeCommand, ReadCmd, WriteCmd
from repro.nvme.device import NvmeDevice

__all__ = ["LbaPartition", "partition_evenly"]


class LbaPartition:
    """A contiguous LBA window of one device, rebased to start at 0."""

    def __init__(self, device: NvmeDevice, base: int, num_lbas: int,
                 name: str = "part"):
        if num_lbas < 1:
            raise ValueError("partition must hold at least one LBA")
        if base < 0 or base + num_lbas > device.num_lbas:
            raise ValueError(
                f"partition [{base}, {base + num_lbas}) outside namespace "
                f"of {device.num_lbas} LBAs"
            )
        self.device = device
        self.base = base
        self._num_lbas = num_lbas
        self.name = name
        self.env = device.env

    # ------------------------------------------------------------------ capacity
    @property
    def num_lbas(self) -> int:
        return self._num_lbas

    @property
    def lba_size(self) -> int:
        return self.device.lba_size

    @property
    def capacity_bytes(self) -> int:
        return self._num_lbas * self.lba_size

    @property
    def fdp(self) -> bool:
        return self.device.fdp

    @property
    def num_pids(self) -> int:
        return self.device.num_pids

    @property
    def ftl(self):
        return self.device.ftl

    # ------------------------------------------------------------------ service
    def _check(self, lba: int, nlb: int) -> None:
        if lba < 0 or lba + nlb > self._num_lbas:
            raise ValueError(
                f"extent [{lba}, {lba + nlb}) outside partition "
                f"{self.name!r} of {self._num_lbas} LBAs"
            )

    def _rebase(self, cmd: NvmeCommand) -> NvmeCommand:
        self._check(cmd.lba, cmd.nlb)
        return dataclasses.replace(cmd, lba=cmd.lba + self.base)

    def submit(self, cmd: NvmeCommand) -> Generator:
        """Service a command addressed in partition-local LBAs."""
        if not isinstance(cmd, (ReadCmd, WriteCmd, DeallocateCmd)):
            raise TypeError(f"unknown command {cmd!r}")
        result = yield from self.device.submit(self._rebase(cmd))
        return result

    # ------------------------------------------------------------------ data plane
    def pages(self, lba: int, nlb: int = 1) -> list[bytes]:
        self._check(lba, nlb)
        return self.device.pages(lba + self.base, nlb)

    def peek(self, lba: int, nlb: int = 1) -> bytes:
        self._check(lba, nlb)
        return self.device.peek(lba + self.base, nlb)

    def written_lbas(self) -> int:
        """LBAs holding data *within this partition* (blank-check)."""
        return self.device.written_lbas(self.base, self._num_lbas)


def partition_evenly(device: NvmeDevice, count: int,
                     prefix: str = "shard") -> list[LbaPartition]:
    """Split a namespace into ``count`` equal contiguous partitions."""
    if count < 1:
        raise ValueError("need at least one partition")
    size = device.num_lbas // count
    if size < 16:
        raise ValueError(
            f"{device.num_lbas} LBAs across {count} partitions leaves "
            f"{size} LBAs each — below the minimum SlimIO layout"
        )
    return [
        LbaPartition(device, i * size, size, name=f"{prefix}{i}")
        for i in range(count)
    ]
