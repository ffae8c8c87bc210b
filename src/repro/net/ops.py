"""Operation streams for the open-loop front end.

An :class:`OpStream` marries an arrival schedule to a workload mix: it
pre-generates one `ClientOp` per arrival, **in arrival order**, so the
op sequence is a pure function of (mix, seed, count) and never depends
on how connections interleave at runtime.

Mixes follow the YCSB core-workload naming; keys are zipfian:

========  =========================================
preset    shape
========  =========================================
ycsb_a    50% read / 50% update
ycsb_b    95% read / 5% update
========  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imdb.server import ClientOp
from repro.workloads.keys import ZipfianKeys, make_key, make_value

__all__ = ["MixSpec", "MIXES", "OpStream"]


@dataclass(frozen=True)
class MixSpec:
    """Fractions of reads and updates; must sum to 1."""

    read: float = 1.0
    update: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.update
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"mix fractions sum to {total}, want 1.0")


MIXES: dict[str, MixSpec] = {
    "ycsb_a": MixSpec(read=0.5, update=0.5),
    "ycsb_b": MixSpec(read=0.95, update=0.05),
}


class OpStream:
    """Pre-generated sequence of op groups, one group per arrival.

    A *group* is a tuple of `ClientOp`s issued back-to-back on the same
    connection; every group here is a single op.  ``group(i)`` is
    deterministic in ``i``.
    """

    def __init__(self, mix: MixSpec, count: int, keyspace: int,
                 value_size: int = 128, seed: int = 7):
        self.mix = mix
        self.count = count
        self.keyspace = keyspace
        self.value_size = value_size
        self.seed = seed
        self._groups = self._generate()

    def _generate(self) -> list[tuple[ClientOp, ...]]:
        rng = np.random.default_rng(self.seed)
        keys = ZipfianKeys(self.keyspace, seed=self.seed).draw(self.count)
        roll = rng.random(self.count)
        groups: list[tuple[ClientOp, ...]] = []
        for i in range(self.count):
            k = make_key(int(keys[i]))
            if roll[i] < self.mix.read:
                groups.append((ClientOp("GET", k),))
            else:
                value = make_value(k, self.value_size,
                                   incompressible_fraction=0.5)
                groups.append((ClientOp("SET", k, value),))
        return groups

    # -- access -------------------------------------------------------

    def group(self, i: int) -> tuple[ClientOp, ...]:
        return self._groups[i % len(self._groups)]
