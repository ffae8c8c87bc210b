"""Runtime I/O sanitizers: execution-time checks of the §4.2 contract.

slimlint (the static half of slimcheck) proves *code* discipline; the
sanitizers prove *data* discipline — that every command reaching the
device actually lands where its origin declared. Misplaced or
mis-tagged writes do not crash anything; they silently destroy the
WAF = 1.00 result, so the only way to notice is to check every command
in flight.

:class:`SanitizedDevice` wraps the device handle a
:class:`~repro.core.engine.SlimIOSystem` builds its rings on (a raw
:class:`~repro.nvme.NvmeDevice` or a per-shard
:class:`~repro.nvme.LbaPartition`; either way commands arrive in the
system's own LBA coordinates) and validates:

* **region containment** — metadata writes stay inside the two
  metadata pages, snapshot writes inside exactly the current *reserve*
  slot (never a published slot, never straddling slots), WAL writes
  inside the WAL region;
* **PID affinity** — every write carries a PID the system's
  :class:`~repro.core.placement.PlacementPolicy` declared for that
  region, the PID is within the device's stream range (an over-range
  PID falls back to stream 0 *silently* on real FDP drives), and
  ``fdp=True`` devices never see an undeclared PID;
* **WAL cursor monotonicity** — WAL writes advance one page past the
  previous write (with wrap at the region end) or rewrite the last
  partial tail page; anything else is a torn or misplaced append;
* **slot state machine** — promotion consumes a reserve slot that
  received at least one snapshot write since the last promotion, and
  the role invariants hold afterwards (exactly one reserve, no
  duplicate roles);
* **deallocate discipline** — the metadata region is never trimmed,
  and snapshot-region trims cover only the current reserve slot (the
  just-replaced snapshot after promotion).

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass, so test harnesses treat it as a failed invariant, not an
environmental error). Enable via ``SystemConfig(sanitize=True)``,
``build_slimio(sanitize=True)``, or ``python -m repro.bench
--sanitize``.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.core.lba import LbaSpaceManager, SnapshotSlots
from repro.core.placement import PlacementPolicy
from repro.nvme.commands import DeallocateCmd, NvmeCommand, WriteCmd
from repro.persist.snapshot import SnapshotKind

__all__ = ["SanitizerError", "SanitizedDevice", "SlimIOSanitizer"]


class SanitizerError(AssertionError):
    """An I/O invariant was violated at execution time."""


class SanitizedDevice:
    """Device proxy that validates every command before forwarding it.

    Exposes the same surface rings and recovery consume (``submit``,
    ``pages``, ``peek``, ``lba_size``, ...); everything not intercepted is
    delegated, so the wrapper is transparent to timing and data.
    """

    def __init__(self, inner, sanitizer: SlimIOSanitizer):
        self._inner = inner
        self._sanitizer = sanitizer

    def submit(self, cmd: NvmeCommand) -> Generator:
        san = self._sanitizer
        if isinstance(cmd, WriteCmd):
            san.check_write(cmd)
        elif isinstance(cmd, DeallocateCmd):
            san.check_deallocate(cmd)
        result = yield from self._inner.submit(cmd)
        return result

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"SanitizedDevice({self._inner!r})"


class _GuardedSlots(SnapshotSlots):
    """SnapshotSlots that refuses illegal promotions.

    Promotion must consume a reserve slot the device sanitizer saw at
    least one snapshot write land in since the last promotion — the
    paper's reserve-slot-first ordering — and must leave the role
    invariants intact.
    """

    def __init__(self, layout, sanitizer: SlimIOSanitizer):
        super().__init__(layout)
        self._sanitizer = sanitizer

    def promote(self, kind: SnapshotKind, snapshot_bytes: int):
        san = self._sanitizer
        reserve = self.reserve_slot
        if reserve not in san.slots_written:
            san.fail(
                f"promotion of reserve slot {reserve} for "
                f"{kind.value!r} but no snapshot write landed in it "
                f"since the last promotion — reserve-slot-first "
                f"ordering violated (the published snapshot would be "
                f"stale or empty)"
            )
        old = super().promote(kind, snapshot_bytes)
        try:
            self.check_invariants()
        except AssertionError as exc:
            san.fail(f"slot roles corrupt after promotion: {exc}")
        san.slots_written.discard(reserve)
        return old

    def restore_state(self, state):
        # a reverted promotion (durable metadata write failed) puts the
        # written-but-unpublished snapshot back in the reserve slot, so
        # re-register it as written — a retry may legally promote it
        super().restore_state(state)
        self._sanitizer.slots_written.add(self.reserve_slot)


class SlimIOSanitizer:
    """Per-system coordinator for the runtime checks.

    Life cycle (driven by :class:`~repro.core.engine.SlimIOSystem`
    when ``config.sanitize`` is set):

    1. ``wrap_device(device)`` — before any ring is built, so every
       command funnels through the wrapper;
    2. ``bind(space, placement)`` — once the LBA space exists; also
       swaps ``space.slots`` for the promotion guard;
    3. ``watch_server(server)`` — installs the fork-snapshot race
       detector (:mod:`repro.analysis.forkcheck`);
    4. ``notify_recovery()`` — after §4.2 recovery rewinds the WAL
       cursor, so monotonicity tracking restarts from the restored
       head.
    """

    def __init__(self, name: str = "slimio"):
        self.name = name
        self.space: LbaSpaceManager | None = None
        self.placement: PlacementPolicy | None = None
        self.device: SanitizedDevice | None = None
        self._inner = None
        self.fork_detector = None
        #: physical LBA where the next WAL append must start
        self._wal_next: int | None = None
        #: last WAL page written (a flush may rewrite this tail page)
        self._wal_tail: int | None = None
        #: reserve slots that received writes since their last promotion
        self.slots_written: set[int] = set()
        self.checks = 0
        self.violations = 0

    # ------------------------------------------------------------------ wiring
    def wrap_device(self, device) -> SanitizedDevice:
        self._inner = device
        self.device = SanitizedDevice(device, self)
        return self.device

    def bind(self, space: LbaSpaceManager,
             placement: PlacementPolicy) -> None:
        self.space = space
        self.placement = placement
        self._wal_next = space.layout.wal_base
        self._wal_tail = None
        guarded = _GuardedSlots(space.layout, self)
        guarded.roles = list(space.slots.roles)
        guarded.lengths = list(space.slots.lengths)
        space.slots = guarded

    def watch_server(self, server) -> None:
        from repro.analysis.forkcheck import ForkRaceDetector

        self.fork_detector = ForkRaceDetector(server)

    def notify_recovery(self) -> None:
        """Recovery restored the WAL cursor; resume tracking there.

        The last live page stays rewritable: recovery re-stages a
        partial tail page, so the first post-recovery flush overwrites
        it in place — the same allowance every flush gets in steady
        state.
        """
        assert self.space is not None
        wal = self.space.wal
        self._wal_next = wal.vpn_to_lba(wal.head)
        self._wal_tail = (wal.vpn_to_lba(wal.head - 1)
                          if wal.head > wal.gen_start else None)

    # ------------------------------------------------------------------ checks
    def fail(self, msg: str) -> None:
        self.violations += 1
        raise SanitizerError(f"[sanitize:{self.name}] {msg}")

    def check_write(self, cmd: WriteCmd) -> None:
        if self.space is None or self.placement is None:
            return  # not bound yet (device built before the LBA space)
        lay = self.space.layout
        place = self.placement
        lo, hi = cmd.lba, cmd.lba + cmd.nlb
        self.checks += 1

        if self._inner is not None and getattr(self._inner, "fdp", False):
            if cmd.pid >= self._inner.num_pids:
                self.fail(
                    f"write [{lo}, {hi}) carries PID {cmd.pid} but the "
                    f"device has {self._inner.num_pids} streams — real "
                    f"FDP devices fall back to stream 0 *silently*, "
                    f"mixing lifetimes and destroying WAF = 1.00"
                )
            if cmd.pid not in place.pids:
                self.fail(
                    f"write [{lo}, {hi}) carries PID {cmd.pid}, which "
                    f"the placement policy never assigned "
                    f"(declared PIDs: {sorted(set(place.pids))})"
                )

        if lo < lay.snapshot_base:
            self._check_metadata_write(cmd, lo, hi)
        elif lo < lay.wal_base:
            self._check_snapshot_write(cmd, lo, hi)
        else:
            self._check_wal_write(cmd, lo, hi)

    def _check_metadata_write(self, cmd: WriteCmd, lo: int, hi: int) -> None:
        lay = self.space.layout
        if hi > lay.metadata_lbas:
            self.fail(
                f"write [{lo}, {hi}) straddles the metadata region "
                f"[0, {lay.metadata_lbas}) into the snapshot region"
            )
        if cmd.pid != self.placement.metadata_pid:
            self.fail(
                f"metadata write [{lo}, {hi}) tagged PID {cmd.pid}, "
                f"expected metadata PID {self.placement.metadata_pid}"
            )

    def _check_snapshot_write(self, cmd: WriteCmd, lo: int, hi: int) -> None:
        lay = self.space.layout
        slots = self.space.slots
        reserve = slots.reserve_slot
        base, cap = self.space.slot_extent(reserve)
        if not (base <= lo and hi <= base + cap):
            slot_lo = (lo - lay.snapshot_base) // lay.slot_lbas
            slot_hi = (hi - 1 - lay.snapshot_base) // lay.slot_lbas
            where = (
                f"slot {slot_lo}" if slot_lo == slot_hi
                else f"slots {slot_lo}..{slot_hi}"
            )
            role = (
                slots.roles[slot_lo].name
                if 0 <= slot_lo < len(slots.roles) else "?"
            )
            self.fail(
                f"snapshot write [{lo}, {hi}) lands in {where} "
                f"(role {role}) but only the reserve slot {reserve} "
                f"[{base}, {base + cap}) may be written — a published "
                f"snapshot would be corrupted in place"
            )
        snap_pids = {
            self.placement.wal_snapshot_pid,
            self.placement.ondemand_snapshot_pid,
        }
        if cmd.pid not in snap_pids:
            self.fail(
                f"snapshot write [{lo}, {hi}) tagged PID {cmd.pid}, "
                f"expected a snapshot PID ({sorted(snap_pids)})"
            )
        self.slots_written.add(reserve)

    def _check_wal_write(self, cmd: WriteCmd, lo: int, hi: int) -> None:
        lay = self.space.layout
        if cmd.pid != self.placement.wal_pid:
            self.fail(
                f"WAL write [{lo}, {hi}) tagged PID {cmd.pid}, "
                f"expected WAL PID {self.placement.wal_pid}"
            )
        expected = [x for x in (self._wal_next, self._wal_tail)
                    if x is not None]
        if expected and lo not in expected:
            self.fail(
                f"non-monotonic WAL write at LBA {lo}: expected the "
                f"cursor ({self._wal_next}) or a tail-page rewrite "
                f"({self._wal_tail}) — circular-log ordering violated"
            )
        nxt = hi
        if nxt >= lay.total_lbas:
            nxt = lay.wal_base  # wrap of the circular log
        self._wal_next = nxt
        self._wal_tail = hi - 1

    def check_deallocate(self, cmd: DeallocateCmd) -> None:
        if self.space is None:
            return
        lay = self.space.layout
        lo, hi = cmd.lba, cmd.lba + cmd.nlb
        self.checks += 1
        if lo < lay.metadata_lbas:
            self.fail(
                f"deallocate [{lo}, {hi}) touches the metadata region "
                f"[0, {lay.metadata_lbas}) — dual-copy metadata is "
                f"never trimmed"
            )
        if lo < lay.wal_base and hi > lay.snapshot_base:
            reserve = self.space.slots.reserve_slot
            base, cap = self.space.slot_extent(reserve)
            if not (base <= lo and hi <= base + cap):
                self.fail(
                    f"deallocate [{lo}, {hi}) in the snapshot region "
                    f"covers more than the reserve slot {reserve} "
                    f"[{base}, {base + cap}) — trimming a published "
                    f"snapshot loses the last durable image"
                )

    # ------------------------------------------------------------------ report
    def summary(self) -> dict[str, int]:
        return {"checks": self.checks, "violations": self.violations}
