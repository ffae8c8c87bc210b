"""Replica bootstrap from an On-Demand snapshot (§2.1's use case).

The paper motivates On-Demand snapshots with "master-slave data
transfer or point-in-time backups". This module implements that full
sync the way Redis does it:

1. the master takes (or reuses) an On-Demand snapshot;
2. the snapshot stream is transferred to the replica over a modeled
   link (bandwidth + RTT) — on the master side it is read through the
   system's snapshot source (passthru read-ahead on SlimIO, page cache
   on the baseline), so the master's I/O path determines how fast the
   sync gets off the box;
3. records logged on the master after the snapshot's fork point are
   forwarded and replayed on the replica, which then matches the
   master exactly.

The replica is just another system handle (baseline or SlimIO); its
own persistence applies to the replicated writes as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Generator

from repro.imdb import ClientOp
from repro.kernel.accounting import CpuAccount
from repro.persist import SnapshotKind
from repro.persist.compress import decompress_time
from repro.persist.encoding import RdbReader
from repro.sim import Environment

__all__ = ["ReplicationLink", "SyncReport", "full_sync"]

MB = 1024 * 1024


@dataclass(frozen=True)
class ReplicationLink:
    """A point-to-point network model for the sync stream."""

    bandwidth: float = 1250 * MB / 10  # 1 GbE payload rate
    rtt: float = 200e-6
    mtu_payload: int = 64 * 1024  # streaming chunk

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.mtu_payload <= 0:
            raise ValueError("bandwidth and mtu must be positive")
        if self.rtt < 0:
            raise ValueError("negative rtt")

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth


@dataclass
class SyncReport:
    """Outcome of one full sync."""

    snapshot_bytes: int = 0
    snapshot_entries: int = 0
    records_forwarded: int = 0
    duration: float = 0.0
    transfer_time: float = 0.0


def full_sync(
    master,
    replica,
    link: ReplicationLink | None = None,
    reuse_snapshot: bool = False,
    key_filter: Callable[[bytes], bool] | None = None,
) -> Generator:
    """Bootstrap ``replica`` from ``master``; returns :class:`SyncReport`.

    Both systems must share one simulation environment. With
    ``reuse_snapshot`` the latest published On-Demand snapshot is
    shipped as-is (stale tail covered by WAL forwarding only for
    records the master still has buffered — Redis semantics require a
    fresh BGSAVE for true full sync, which is the default here).

    ``key_filter`` restricts the sync to a key subset: only matching
    snapshot entries are loaded on the replica and only matching
    post-fork writes are forwarded. This is the transfer engine for
    slot-range migration (:func:`repro.cluster.reshard.migrate_slots`),
    where the "replica" is a live shard that keeps its own keys.
    """
    env: Environment = master.env
    if replica.env is not env:
        raise ValueError("master and replica must share an environment")
    link = link or ReplicationLink()
    report = SyncReport()
    t0 = env.now

    # 1) snapshot at a pinned fork point; capture the replication
    #    backlog from that exact instant
    backlog: list[ClientOp] = []
    original_serve = master.server._serve

    def tapped_serve(op):
        if op.op in ("SET", "DEL") and \
                (key_filter is None or key_filter(op.key)):
            backlog.append(op)
        return original_serve(op)

    # the tap stays installed from the fork point until the backlog has
    # fully drained onto the replica — every master write in between is
    # part of this sync
    master.server._serve = tapped_serve
    try:
        if not reuse_snapshot:
            proc = master.server.start_snapshot(SnapshotKind.ON_DEMAND)
            if proc is None:
                raise RuntimeError(
                    "another snapshot is in progress; retry the full sync"
                )
            stats = yield proc
            if not stats.ok:
                raise RuntimeError("master snapshot failed")

        # 2) stream the snapshot: master-side reads through its I/O
        #    path, then the wire
        acct = CpuAccount(env, "repl-sender")
        source = master.snapshot_source(SnapshotKind.ON_DEMAND)
        total = source.size
        blob = bytearray()
        offset = 0
        t_wire = 0.0
        yield env.timeout(link.rtt)  # PSYNC handshake
        while offset < total:
            n = min(link.mtu_payload, total - offset)
            piece = yield from source.read(offset, n, acct)
            blob.extend(piece)
            wire = link.transfer_time(n)
            t_wire += wire
            yield env.timeout(wire)
            offset += n
        report.snapshot_bytes = total
        report.transfer_time = t_wire

        # 3) replica loads the image
        entries = RdbReader().read_all(blob)
        if key_filter is not None:
            entries = [(k, v) for k, v in entries if key_filter(k)]
        report.snapshot_entries = len(entries)
        raw = sum(len(k) + len(v) for k, v in entries)
        r_acct = CpuAccount(env, "repl-loader")
        _cpu_ev = r_acct.charge(
            "decompress",
            decompress_time(raw, max(1, len(entries) // 64)),
        )
        if _cpu_ev is not None:
            yield _cpu_ev
        for key, value in entries:
            yield from replica.server.execute(ClientOp("SET", key, value))

        # 4) forward the backlog until it drains (new master writes may
        #    keep arriving while we replay)
        while backlog:
            op = backlog.pop(0)
            wire = link.transfer_time(len(op.key) + len(op.value) + 16)
            yield env.timeout(wire)
            yield from replica.server.execute(op)
            report.records_forwarded += 1
    finally:
        master.server._serve = original_serve

    report.duration = env.now - t0
    return report
