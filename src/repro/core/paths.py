"""The WAL-Path and Snapshot-Path (paper §4.1).

Each path owns a :class:`~repro.kernel.iouring.PassthruQueuePair` —
its private SQ/CQ pair in SQPOLL mode — so the main process's WAL
traffic and the snapshot child's bulk writes never meet above the NVMe
queues: no shared journal lock, no shared scheduler queue, no page
cache. Writes carry the lifetime PID from the
:class:`~repro.core.placement.PlacementPolicy`.

Byte framing: the LBA space is page-granular, so both paths keep a
tail-page staging buffer; a flush writes whole pages and the next
flush rewrites the (remapped-by-FTL) tail page with more data.

Durability/ordering contracts:

* ``WalPath.flush`` returns only when the appended records are on
  flash; the metadata head is then updated *asynchronously* — recovery
  treats it as a hint and scans forward (CRC-delimited), so no record
  durability is lost to metadata staleness.
* ``SnapshotPath`` streams into the **reserve slot** with a bounded
  in-flight window (the CQ handler thread reaps completions);
  ``finalize`` waits for all data, durably writes the promoted
  metadata, and only then deallocates the replaced slot.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.core.lba import LbaSpaceManager, SlotRole
from repro.core.metadata import Metadata, MetadataStore
from repro.core.placement import PlacementPolicy
from repro.core.readahead import ReadAheadBuffer
from repro.kernel.accounting import CpuAccount
from repro.kernel.iouring import PassthruQueuePair
from repro.nvme import ReadCmd, WriteCmd, split_pages
from repro.obs.registry import MetricsRegistry
from repro.persist.encoding import AofReader
from repro.persist.interfaces import (
    READ_WINDOW_PAGES,
    AppendSink,
    SnapshotSink,
    SnapshotSource,
)
from repro.persist.snapshot import SnapshotKind
from repro.sim import Environment, Event, Resource

__all__ = ["WalPath", "SnapshotPath", "SlimIOSnapshotSource",
           "current_metadata"]


def _pad_to_page(data: bytes, page: int) -> bytes:
    rem = len(data) % page
    return data if rem == 0 else data + bytes(page - rem)


def current_metadata(space: LbaSpaceManager) -> Metadata:
    """A complete Metadata image of the space state *right now*.

    Every durable metadata write — the WAL head hint, generation
    rotation, snapshot promotion — must go through this one builder:
    recovery picks the copy with the highest seqno, so any writer that
    omits a field (the old snapshot-finalize path dropped the
    ``wal_prev_*`` handoff) durably erases another writer's state.
    """
    return Metadata(
        wal_gen_start=space.wal.gen_start,
        wal_head=space.wal.head,
        wal_prev_start=space.wal.prev_start,
        wal_prev_bytes=space.wal.prev_bytes,
        slot_roles=[int(r) for r in space.slots.roles],
        slot_lengths=list(space.slots.lengths),
    )


class WalPath(AppendSink):
    """Append log over the circular WAL region via passthru."""

    def __init__(
        self,
        env: Environment,
        ring: PassthruQueuePair,
        space: LbaSpaceManager,
        meta_store: MetadataStore,
        account: CpuAccount,
        placement: PlacementPolicy | None = None,
        obs=None,
    ):
        self.env = env
        self.ring = ring
        self.space = space
        self.meta = meta_store
        self.account = account
        self.placement = placement or PlacementPolicy()
        self._staged: list[bytes] = []
        self._staged_bytes = 0
        self._tail: bytes = b""  # bytes already flushed into a partial page
        self._tail_vpn: int | None = None
        # the circular-log cursor is single-writer: WalManager's everysec
        # fsync runs outside its sink lock (safe for a file sink, whose
        # flush is an idempotent fsync), so concurrent flush() calls CAN
        # arrive here — serialize them or two flushes compute their
        # start page from stale _tail_vpn and overwrite each other
        self._flush_lock = Resource(env, capacity=1)
        self._gen_bytes = 0
        self._meta_inflight: Event | None = None
        # the previous generation's covering snapshot is durable, and a
        # flush short of room parked on _room_waiter (see _make_room)
        self._prev_covered = False
        self._room_waiter: Event | None = None
        self.obs = obs or MetricsRegistry(env)
        self._obs_flush_bytes = self.obs.histogram("walpath_flush_bytes")
        self._obs_flush_pages = self.obs.counter("walpath_flush_pages_total")
        self._obs_meta_writes = self.obs.counter("walpath_meta_writes_total")

    @property
    def _prev_gen_bytes(self) -> int:
        """Logical length of the retiring generation (space-owned state,
        kept on :class:`WalRegion` so every metadata writer sees it)."""
        return self.space.wal.prev_bytes

    @_prev_gen_bytes.setter
    def _prev_gen_bytes(self, value: int) -> None:
        self.space.wal.prev_bytes = value

    # ------------------------------------------------------------------ sink API
    @property
    def size(self) -> int:
        return self._gen_bytes

    @property
    def flush_is_noop(self) -> bool:
        """Nothing staged and no partial tail page: flush returns
        before even taking the flush lock — zero events, zero time."""
        return not self._staged and self._tail_vpn is None

    def append(self, data: bytes, account: CpuAccount) -> Generator:
        """Stage at the tail (user-space; no device I/O yet)."""
        self._staged.append(data)
        self._staged_bytes += len(data)
        self._gen_bytes += len(data)
        return
        yield  # pragma: no cover - generator form for interface parity

    def flush(self, account: CpuAccount) -> Generator:
        """Write staged bytes; returns when they are on flash."""
        if not self._staged and self._tail_vpn is None:
            return
        req = self._flush_lock.request()
        yield req
        try:
            yield from self._flush_locked(account)
        finally:
            self._flush_lock.release(req)

    def _flush_locked(self, account: CpuAccount) -> Generator:
        if not self._staged:
            return  # tail already durable (or a rival flush drained us)
        page = self.ring.device.lba_size
        data = self._tail + b"".join(self._staged)
        self._staged.clear()
        self._staged_bytes = 0

        start_vpn = (
            self._tail_vpn
            if self._tail_vpn is not None
            else self.space.wal.alloc(0)
        )
        full_pages = len(data) // page
        rem = len(data) % page
        needed = full_pages + (1 if rem else 0)
        already = 1 if self._tail_vpn is not None else 0
        if needed > already:
            yield from self._make_room(needed - already, account)
            self.space.wal.alloc(needed - already)

        payload = split_pages(_pad_to_page(data, page), page)
        events = []
        vpn = start_vpn
        for lba, n in self.space.wal.contiguous_run(start_vpn, needed):
            piece = payload[vpn - start_vpn : vpn - start_vpn + n]
            ev = yield from self.ring.submit(
                WriteCmd(lba=lba, nlb=n, data=piece, pid=self.placement.wal_pid),
                account,
            )
            events.append(ev)
            vpn += n
        for ev in events:
            yield from self.ring.wait(ev, account)
        self._obs_flush_bytes.observe(float(len(data)))
        self._obs_flush_pages.inc(needed)

        if rem:
            self._tail = data[full_pages * page :]
            self._tail_vpn = start_vpn + full_pages
        else:
            self._tail = b""
            self._tail_vpn = None
        yield from self._update_metadata_async(account)

    def _make_room(self, npages: int, account: CpuAccount) -> Generator:
        """Wait until ``npages`` more fit in the WAL region.

        The region holds the current generation and the previous one,
        which stays until the WAL-Snapshot covering it is durable. When
        that snapshot is slow (device GC) and the current generation
        outgrows the rest of the region, the flush waits for it instead
        of failing; writers then back up behind the WAL buffer limit.
        Once the snapshot is durable this flush retires the previous
        generation itself: it holds the append cursor, and the WAL
        manager's own retirement may be queued behind it. A generation
        that alone outgrows the region still fails in ``alloc``.
        """
        wal = self.space.wal
        while (wal.prev_start is not None
               and wal.live_pages() + npages > wal.wal_pages):
            if self._prev_covered:
                yield from self.retire_previous(account)
            else:
                self._room_waiter = self.env.event()
                yield self._room_waiter

    def _wake_room(self) -> None:
        if self._room_waiter is not None:
            self._room_waiter.succeed()
            self._room_waiter = None

    def previous_covered(self) -> None:
        if self.space.wal.prev_start is not None:
            self._prev_covered = True
            self._wake_room()

    def _update_metadata_async(self, account: CpuAccount) -> Generator:
        """Persist the WAL head hint without waiting for it."""
        if self._meta_inflight is not None and not self._meta_inflight.processed:
            return  # one in flight is enough: it's only a hint
        done = self.env.event()

        def _writer():
            # Build the metadata at *write* time, inside the async
            # process — not when it is scheduled. A snapshot promotion
            # or generation rotation can land between the two, and the
            # seqno is assigned when meta.write runs: a stale capture
            # written later wins the A/B election and durably reverts
            # the promotion (whose old slot is already deallocated) —
            # a recovered server would then read a trimmed slot as its
            # published snapshot.
            yield from self.meta.write(self._current_meta(), self.account)
            done.succeed()

        self.env.process(_writer(), name="wal-meta")
        self._meta_inflight = done
        self._obs_meta_writes.inc()
        return
        yield  # pragma: no cover

    def _current_meta(self) -> Metadata:
        return current_metadata(self.space)

    def begin_generation(self, account: CpuAccount) -> Generator:
        """Start a new generation at the fork; the old one stays live.

        Metadata records both generations so a crash before the
        snapshot completes still replays the full chain.
        """
        yield from self.flush(account)
        self.space.wal.start_new_generation()
        self._prev_covered = False
        self._tail = b""
        self._tail_vpn = None
        self._prev_gen_bytes = self._gen_bytes
        self._gen_bytes = 0
        yield from self.meta.write(self._current_meta(), account)

    def retire_previous(self, account: CpuAccount) -> Generator:
        """Deallocate the pre-snapshot generation (snapshot durable).

        Ordering: metadata stops referencing the old generation first,
        then its pages are TRIMmed — a crash in between only leaks
        pages until the next rotation, never loses data.
        """
        wal = self.space.wal
        if wal.prev_start is None:
            return
        retired_start, retired_end = wal.prev_start, wal.gen_start
        wal.retire_previous()  # also zeroes wal.prev_bytes
        self._prev_covered = False
        yield from self.meta.write(self._current_meta(), account)
        for lba, n in wal.contiguous_run(
            retired_start, retired_end - retired_start
        ):
            if n:
                ev = yield from self.ring.deallocate(lba, n, account)
                yield from self.ring.wait(ev, account)
        self._wake_room()

    def read_all(self, account: CpuAccount, reader: AofReader) -> Generator:
        """Feed every live generation to ``reader`` (recovery;
        CRC-delimited tail), one read window at a time.

        Reads from the oldest live generation through the metadata head
        hint, then keeps scanning forward — the head hint may lag the
        last durable flush. Adoption beyond the hint is *decode-driven*:
        a page joins the live head only while the CRC-validated record
        stream extends into it, and only adopted pages are fed. Any
        nonzero-but-invalid page past the stream (a torn flush, or
        stale pages of a retired generation whose TRIM a crash
        interrupted) is left outside the head rather than adopted —
        adopting it would park the append cursor after garbage and
        strand every post-recovery record behind an undecodable gap on
        the *next* recovery.

        The previous generation is all-or-nothing, so it is the one
        part held whole: it is fed only once it decodes to its recorded
        length.

        Also restores the append cursor (tail page staging) to the true
        durable tail, so post-recovery appends continue the record
        stream contiguously instead of leaving a zero-padding hole that
        a later replay would mistake for the end of the log.
        """
        yield from self.flush(account)  # no-op post-crash; convenience live
        wal = self.space.wal
        page = self.ring.device.lba_size
        gen_off = 0  # stream offset where the current gen starts
        if wal.prev_start is not None:
            prev = bytearray()
            yield from self._read_range(wal.prev_start, wal.gen_start,
                                        account, prev.extend)
            # trimmed to its logical length so the page padding at its
            # tail doesn't break the record stream
            del prev[self._prev_gen_bytes:]
            if AofReader().reach(prev) != len(prev):
                # The prev region does not decode to its recorded length:
                # retire_previous TRIMmed it (fully or partially) before a
                # later metadata write could clear wal_prev_start. A TRIM
                # only ever starts once the covering snapshot is durable,
                # so these records are safe to drop — replaying a damaged
                # fragment would instead poison the scan and discard the
                # *current* generation's acked records after it.
                wal.prev_start = None
                self._prev_gen_bytes = 0
            else:
                reader.feed(prev)
                gen_off = len(prev)
            del prev
        fed = gen_off
        # the window the valid stream last advanced in, and its offset
        end_window, end_at = b"", 0

        def feed(window: bytes) -> None:
            nonlocal fed, end_window, end_at
            before = reader.consumed
            reader.feed(window)
            if reader.consumed != before:
                end_window, end_at = window, fed
            fed += len(window)

        # current generation through the metadata head hint
        yield from self._read_range(wal.gen_start, wal.head, account, feed)
        # scan beyond the hint (bounded by region capacity)
        vpn = wal.head
        oldest = wal.prev_start if wal.prev_start is not None else wal.gen_start
        limit = oldest + wal.wal_pages
        while vpn < limit:
            n = min(16, limit - vpn)
            chunk = bytearray()
            yield from self._read_range(vpn, vpn + n, account, chunk.extend)
            if chunk.count(0) == len(chunk):
                break  # blank pages: the log ends here
            reach = reader.reach(chunk)
            if reach <= fed:
                break  # no valid record reaches into this chunk: stale/torn
            adopted = -(-(reach - fed) // page)  # pages the stream reaches
            feed(bytes(chunk[:adopted * page]))
            vpn += adopted
            wal.head = vpn  # adopt validated pages into the live head
            if adopted < n:
                break
        self._restore_cursor(reader.consumed, gen_off, page,
                             end_window, end_at)

    def _restore_cursor(self, consumed: int, gen_off: int, page: int,
                        end_window: bytes, end_at: int) -> None:
        """Re-stage the partial tail page of the recovered stream.

        ``consumed`` is the stream offset where the valid records end,
        and ``end_window`` the read window (at stream offset ``end_at``,
        whole pages of the current generation) that holds their last
        byte; everything after ``consumed`` in the same page is a torn
        fragment or padding that the next flush must overwrite in place
        — otherwise the record stream acquires an interior zero gap and
        every record appended after recovery is silently unreachable by
        the following recovery.
        """
        rel = consumed - gen_off  # valid bytes of the current generation
        wal = self.space.wal
        if rel <= 0:
            # tear inside the previous generation: the current gen holds
            # no decodable bytes; restart it at its first page
            wal.head = wal.gen_start
            self._gen_bytes = 0
            self._tail = b""
            self._tail_vpn = None
            return
        full, rem = divmod(rel, page)
        wal.head = wal.gen_start + full + (1 if rem else 0)
        self._gen_bytes = rel
        if rem:
            at = gen_off + full * page - end_at
            self._tail = bytes(end_window[at:at + rem])
            self._tail_vpn = wal.gen_start + full
        else:
            self._tail = b""
            self._tail_vpn = None

    def trim_beyond_head(self, account: CpuAccount) -> Generator:
        """TRIM every WAL page outside the live generations (recovery).

        A crash between ``retire_previous``'s metadata write and its
        deallocations leaves stale retired-generation pages on flash;
        a torn flush leaves fragments past the recovered head. Neither
        is adopted by :meth:`read_all`, but both would still sit in
        front of future appends — wiped here so the region beyond the
        head is genuinely blank, as every invariant assumes.
        """
        wal = self.space.wal
        oldest = wal.prev_start if wal.prev_start is not None else wal.gen_start
        npages = oldest + wal.wal_pages - wal.head
        if npages <= 0:
            return
        for lba, n in wal.contiguous_run(wal.head, npages):
            if n:
                ev = yield from self.ring.deallocate(lba, n, account)
                yield from self.ring.wait(ev, account)

    def _read_range(self, vpn_start: int, vpn_end: int, account: CpuAccount,
                    take: Callable[[bytes], None]) -> Generator:
        """Read WAL pages ``[vpn_start, vpn_end)``, one read per
        contiguous run of at most :data:`READ_WINDOW_PAGES`, handing
        each run to ``take`` as one window (the join of its pages)."""
        wal = self.space.wal
        vpn = vpn_start
        while vpn < vpn_end:
            for lba, n in wal.contiguous_run(
                    vpn, min(vpn_end - vpn, READ_WINDOW_PAGES)):
                pages = yield from self.ring.submit_and_wait(
                    ReadCmd(lba=lba, nlb=n), account
                )
                take(b"".join(pages))
                vpn += n


class SnapshotPath(SnapshotSink):
    """Snapshot stream into the reserve slot via passthru (async writes)."""

    def __init__(
        self,
        env: Environment,
        ring: PassthruQueuePair,
        space: LbaSpaceManager,
        meta_store: MetadataStore,
        kind: SnapshotKind,
        placement: PlacementPolicy | None = None,
        write_batch_pages: int = 8,
        max_inflight_batches: int = 16,
        obs=None,
    ):
        if write_batch_pages < 1 or max_inflight_batches < 1:
            raise ValueError("batch/window must be >= 1")
        self.env = env
        self.ring = ring
        self.space = space
        self.meta = meta_store
        self.kind = kind
        self.placement = placement or PlacementPolicy()
        self.batch_pages = write_batch_pages
        self.max_inflight = max_inflight_batches
        self._buffer = bytearray()
        self._slot: int | None = None
        self._pages_written = 0
        self._bytes = 0
        self._inflight: list[Event] = []
        self.obs = obs or MetricsRegistry(env)
        self._obs_pages = self.obs.counter("snapshot_path_pages_total",
                                           kind=kind.value)
        self._obs_window = self.obs.gauge("snapshot_path_inflight_batches",
                                          kind=kind.value)
        self._obs_window.set(0.0)

    @property
    def bytes_written(self) -> int:
        return self._bytes

    @property
    def pid(self) -> int:
        return self.placement.pid_for_snapshot(self.kind)

    def _ensure_slot(self) -> int:
        if self._slot is None:
            self._slot = self.space.slots.reserve_slot
            self._pages_written = 0
            self._bytes = 0
            self._buffer.clear()
            self._inflight.clear()
        return self._slot

    def write(self, data: bytes, account: CpuAccount) -> Generator:
        slot = self._ensure_slot()
        self._buffer.extend(data)
        self._bytes += len(data)
        page = self.ring.device.lba_size
        batch_bytes = self.batch_pages * page
        while len(self._buffer) >= batch_bytes:
            with memoryview(self._buffer) as view:
                chunk = split_pages(view[:batch_bytes], page)
            del self._buffer[:batch_bytes]
            yield from self._submit_pages(slot, chunk, account)

    def _submit_pages(self, slot: int, chunk: list[bytes],
                      account: CpuAccount) -> Generator:
        base, cap = self.space.slot_extent(slot)
        npages = len(chunk)
        if self._pages_written + npages > cap:
            raise OSError("snapshot slot overflow — enlarge the slot size")
        ev = yield from self.ring.submit(
            WriteCmd(
                lba=base + self._pages_written,
                nlb=npages,
                data=chunk,
                pid=self.pid,
            ),
            account,
        )
        self._pages_written += npages
        self._inflight.append(ev)
        self._obs_pages.inc(npages)
        self._obs_window.set(float(len(self._inflight)))
        # bounded window: the CQ handler keeps up, the submitter only
        # stalls when the device is genuinely behind
        while len(self._inflight) > self.max_inflight:
            oldest = self._inflight.pop(0)
            yield from self.ring.wait(oldest, account)
        self._obs_window.set(float(len(self._inflight)))

    def finalize(self, account: CpuAccount) -> Generator:
        slot = self._ensure_slot()
        page = self.ring.device.lba_size
        if self._buffer:
            chunk = split_pages(_pad_to_page(bytes(self._buffer), page), page)
            self._buffer.clear()
            yield from self._submit_pages(slot, chunk, account)
        # 1) all data durable
        while self._inflight:
            yield from self.ring.wait(self._inflight.pop(0), account)
        # 2) promote the reserve slot in the metadata, durably. The
        # in-memory promotion happens first so any concurrent metadata
        # writer (the WAL head hint) that wins a higher seqno carries
        # the promoted roles too — publishing early is safe because the
        # snapshot data is already durable (step 1). The full space
        # image (incl. the wal_prev_* handoff) must be written: a
        # partial Metadata here would durably drop a pending previous
        # generation and lose acknowledged records on recovery.
        undo = self.space.slots.snapshot_state()
        old_slot = self.space.slots.promote(self.kind, self._bytes)
        try:
            yield from self.meta.write(current_metadata(self.space), account)
        except Exception:
            # the durable write failed: roll the in-memory promotion
            # back so memory matches flash — the old snapshot stays
            # published and the written-but-unpromoted data stays in
            # the reserve slot for a retry
            self.space.slots.restore_state(undo)
            raise
        # 3) only now retire the previous snapshot of this kind
        if old_slot is not None:
            base, cap = self.space.slot_extent(old_slot)
            ev = yield from self.ring.deallocate(base, cap, account)
            yield from self.ring.wait(ev, account)
        self._slot = None

    def abort(self) -> None:
        """Discard the partial snapshot; the reserve slot stays reserve.

        Deallocation of the partial pages is deferred to the next use
        (writes simply overwrite); bookkeeping is reset immediately.
        """
        self._slot = None
        self._buffer.clear()
        self._inflight.clear()
        self._pages_written = 0
        self._bytes = 0


class SlimIOSnapshotSource(SnapshotSource):
    """Read a published snapshot slot through the read-ahead buffer."""

    def __init__(
        self,
        ring: PassthruQueuePair,
        space: LbaSpaceManager,
        kind: SnapshotKind,
        readahead_pages: int = 64,
        obs=None,
    ):
        role = SlotRole.for_kind(kind)
        slot = space.slots.slot_of(role)
        if slot is None:
            raise FileNotFoundError(f"no published {role.name} snapshot")
        base, cap = space.slot_extent(slot)
        self._size = space.slots.lengths[slot]
        page = ring.device.lba_size
        npages = min(cap, -(-self._size // page)) if self._size else 0
        self._buffer = ReadAheadBuffer(
            ring, base, max(npages, 1), window_pages=readahead_pages,
            obs=obs,
        )

    @property
    def size(self) -> int:
        return self._size

    def read(self, offset: int, length: int, account: CpuAccount) -> Generator:
        length = max(0, min(length, self._size - offset))
        if length == 0:
            return b""
        data = yield from self._buffer.read(offset, length, account)
        return data
