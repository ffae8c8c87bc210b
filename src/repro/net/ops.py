"""Operation streams for the open-loop front end.

An :class:`OpStream` marries an arrival schedule to a workload mix: it
pre-generates one `ClientOp` per arrival, **in arrival order**, so the
op sequence is a pure function of (mix, seed, count) and never depends
on how connections interleave at runtime.  A scenario twist — a hotspot
shift mid-run — is expressed at this level too, keyed off the arrival
index, which keeps every run deterministic.

Mixes follow the YCSB core-workload naming:

========  =========================================  ================
preset    shape                                      distribution
========  =========================================  ================
ycsb_a    50% read / 50% update                      zipfian
ycsb_b    95% read / 5% update                       zipfian
ycsb_c    100% read                                  zipfian
ycsb_d    95% read / 5% insert, reads skew to        latest
          recently inserted keys
ycsb_e    95% scan (multi-GET surrogate) / 5%        zipfian
          insert
ycsb_f    50% read / 50% read-modify-write           zipfian
========  =========================================  ================

Scans are modeled as short multi-GET runs over adjacent key indices
(the store has no range iterator); RMW is a GET immediately followed by
a SET on the same key from the same connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imdb.server import ClientOp
from repro.workloads.keys import ZipfianKeys, make_key, make_value

__all__ = ["MixSpec", "MIXES", "OpStream"]


@dataclass(frozen=True)
class MixSpec:
    """Fractions of each op class; must sum to <= 1 (rest = read)."""

    read: float = 1.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0
    scan: float = 0.0
    #: key-chooser: "zipfian" | "uniform" | "latest"
    distribution: str = "zipfian"
    #: max keys touched by one scan (uniform in [1, scan_max])
    scan_max: int = 8

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw + self.scan
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"mix fractions sum to {total}, want 1.0")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


MIXES: dict[str, MixSpec] = {
    "ycsb_a": MixSpec(read=0.5, update=0.5),
    "ycsb_b": MixSpec(read=0.95, update=0.05),
    "ycsb_c": MixSpec(read=1.0),
    "ycsb_d": MixSpec(read=0.95, insert=0.05, distribution="latest"),
    "ycsb_e": MixSpec(read=0.0, scan=0.95, insert=0.05),
    "ycsb_f": MixSpec(read=0.5, rmw=0.5),
}


class OpStream:
    """Pre-generated sequence of op groups, one group per arrival.

    A *group* is a tuple of `ClientOp`s issued back-to-back on the same
    connection (scans and RMW expand to several commands; plain ops are
    singleton groups).  ``group(i)`` is deterministic in ``i``.
    """

    def __init__(self, mix: MixSpec, count: int, keyspace: int,
                 value_size: int = 128, seed: int = 7,
                 hotspot_shift_at: int | None = None):
        self.mix = mix
        self.count = count
        self.keyspace = keyspace
        self.value_size = value_size
        self.seed = seed
        self.hotspot_shift_at = hotspot_shift_at
        self._groups = self._generate()

    # -- key choosers -------------------------------------------------

    def _choose_keys(self, rng: np.random.Generator) -> np.ndarray:
        n, ks = self.count, self.keyspace
        if self.mix.distribution == "uniform":
            return rng.integers(0, ks, size=n)
        if self.mix.distribution == "latest":
            # rank 0 → newest key (YCSB "latest" semantics)
            z = ZipfianKeys(ks, seed=self.seed)
            return (ks - 1) - z.ranks(n)
        z = ZipfianKeys(ks, seed=self.seed)
        idx = z.draw(n)
        if self.hotspot_shift_at is not None and self.hotspot_shift_at < n:
            # mid-run hotspot move: same popularity curve, different
            # scramble, so the hot set lands on cold keys
            z2 = ZipfianKeys(ks, seed=self.seed + 0x51F7)
            idx[self.hotspot_shift_at:] = z2.draw(n - self.hotspot_shift_at)
        return idx

    # -- generation ---------------------------------------------------

    def _generate(self) -> list[tuple[ClientOp, ...]]:
        rng = np.random.default_rng(self.seed)
        keys = self._choose_keys(rng)
        roll = rng.random(self.count)
        scan_lens = rng.integers(1, self.mix.scan_max + 1, size=self.count)
        m = self.mix
        c_read = m.read
        c_update = c_read + m.update
        c_insert = c_update + m.insert
        c_rmw = c_insert + m.rmw

        groups: list[tuple[ClientOp, ...]] = []
        next_insert = self.keyspace  # inserts extend the keyspace
        for i in range(self.count):
            k = make_key(int(keys[i]))
            r = roll[i]
            if r < c_read:
                groups.append((ClientOp("GET", k),))
            elif r < c_update:
                groups.append((ClientOp("SET", k, self._value(k)),))
            elif r < c_insert:
                nk = make_key(next_insert)
                next_insert += 1
                groups.append((ClientOp("SET", nk, self._value(nk)),))
            elif r < c_rmw:
                groups.append((ClientOp("GET", k),
                               ClientOp("SET", k, self._value(k))))
            else:  # scan: multi-GET over adjacent indices
                base = int(keys[i])
                ops = tuple(
                    ClientOp("GET", make_key((base + j) % self.keyspace))
                    for j in range(int(scan_lens[i])))
                groups.append(ops)
        return groups

    def _value(self, key: bytes) -> bytes:
        return make_value(key, self.value_size, incompressible_fraction=0.5)

    # -- access -------------------------------------------------------

    def group(self, i: int) -> tuple[ClientOp, ...]:
        return self._groups[i % len(self._groups)]

    def __len__(self) -> int:
        return self.count

    def with_count(self, count: int) -> "OpStream":
        """Regenerate the stream for a different arrival count."""
        return OpStream(self.mix, count, self.keyspace,
                        value_size=self.value_size, seed=self.seed,
                        hotspot_shift_at=self.hotspot_shift_at)
