"""The client-facing façade: route each op to its slot's shard.

Workload clients call :meth:`ClusterRouter.execute` exactly as they
would a single :class:`~repro.imdb.Server`; the router hashes the key
(CRC16 mod 16384, hash tags honoured), looks up the owning shard in
the live :class:`~repro.cluster.slots.HashSlotMap`, and forwards.

During a live migration (:mod:`repro.cluster.reshard`) the map still
points migrating slots at the source shard; writes land there and the
migration's tap forwards them to the destination, so the router itself
never needs migration state — cutover is a single ``move`` on the map
and the very next op routes to the new owner.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.imdb import ClientOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.engine import ShardHandle
    from repro.cluster.slots import HashSlotMap

__all__ = ["ClusterRouter"]


class ClusterRouter:
    """Slot-hash routing over a cluster's shards.

    It holds the cluster's shard list and slot map, not the cluster,
    so the cluster handle is in no reference cycle."""

    def __init__(self, shards: list[ShardHandle], slot_map: HashSlotMap):
        self.shards = shards
        self.slot_map = slot_map
        #: ops routed per shard index (routing-table hit counts)
        self.routed = [0] * len(shards)

    def shard_for_key(self, key: bytes | str) -> ShardHandle:
        return self.shards[self.slot_map.shard_for_key(key)]

    def execute(self, op: ClientOp) -> Generator:
        """Serve one request on the owning shard (a generator, like
        ``Server.execute``; clients ``yield from`` it)."""
        index = self.slot_map.shard_for_key(op.key)
        self.routed[index] += 1
        result = yield from self.shards[index].server.execute(op)
        return result
