"""Deterministic fault injection for the NVMe device.

:class:`FaultyDevice` wraps an :class:`~repro.nvme.NvmeDevice` (the
same proxy idiom as ``repro.analysis.SanitizedDevice``) and perturbs
the command stream in two seeded, reproducible ways:

**Power cuts.** A cut can be scheduled at an absolute sim instant
(``PowerCutSpec.at_time``) or at the Nth page write across the whole
device (``at_page_write``). A multi-page write straddling the cut is
*torn*: only some of its pages persist. ``torn="prefix"`` keeps the
first k pages (in-order programming), ``torn="shuffle"`` keeps a seeded
arbitrary k-subset (out-of-order programming across dies — the worst
case the Metadata Region's A/B scheme and the WAL's CRC framing must
survive). Commands still in flight at the instant of the cut are torn
the same way; commands submitted after it hang forever — a dead device
returns nothing, not errors — so the only observable is the one a real
host has: the machine stops, and recovery reads the surviving image.

**Transient errors.** With an :class:`ErrorSpec`, each write/read
command independently fails with a seeded probability, raising
:class:`~repro.nvme.NvmeError` (or ``NvmeTimeout``) after a realistic
delay. The kernel ring's :class:`~repro.kernel.RetryPolicy` is expected
to absorb these; ``max_failures_per_cmd`` bounds how many times one
command fails so a bounded retry loop can always make progress unless a
test forces otherwise (:meth:`FaultyDevice.force_errors`).

Determinism: all choices come from ``random.Random(seed)`` streams
consumed in command-submission order, which the simulator makes
deterministic. Two runs of the same workload with the same specs tear
the same pages and fail the same commands.
"""

from __future__ import annotations

import random
from collections.abc import Generator
from dataclasses import dataclass

from repro.nvme import (
    DeallocateCmd,
    NvmeCommand,
    NvmeDevice,
    NvmeError,
    NvmeTimeout,
    ReadCmd,
    WriteCmd,
)
from repro.obs.registry import MetricsRegistry
from repro.sim import Event

__all__ = ["PowerCutSpec", "ErrorSpec", "TraceEntry", "FaultyDevice"]

_TORN_MODES = ("prefix", "shuffle")


@dataclass(frozen=True)
class PowerCutSpec:
    """When and how power dies.

    Exactly one of ``at_page_write`` / ``at_time`` should be set.
    ``at_page_write=N`` cuts power during the write that would program
    the (N+1)th page overall: N pages of acknowledged-or-earlier data
    survive in full, and the straddling command keeps only its share.
    """

    at_page_write: int | None = None
    at_time: float | None = None
    torn: str = "prefix"
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.at_page_write is None) == (self.at_time is None):
            raise ValueError("set exactly one of at_page_write / at_time")
        if self.at_page_write is not None and self.at_page_write < 0:
            raise ValueError("negative at_page_write")
        if self.torn not in _TORN_MODES:
            raise ValueError(f"torn must be one of {_TORN_MODES}")


@dataclass(frozen=True)
class ErrorSpec:
    """Seeded transient-failure policy for the command stream."""

    seed: int = 0
    write_error_rate: float = 0.0
    read_error_rate: float = 0.0
    timeout_fraction: float = 0.25  # injected failures that are timeouts
    max_failures_per_cmd: int = 2
    error_latency: float = 20e-6
    timeout_latency: float = 400e-6

    def __post_init__(self) -> None:
        for rate in (self.write_error_rate, self.read_error_rate,
                     self.timeout_fraction):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be within [0, 1]")
        if self.max_failures_per_cmd < 0:
            raise ValueError("negative max_failures_per_cmd")

    @classmethod
    def light(cls, seed: int = 0) -> ErrorSpec:
        """A mild background error rate every retry policy should absorb."""
        return cls(seed=seed, write_error_rate=0.002, read_error_rate=0.001)


@dataclass(frozen=True)
class TraceEntry:
    """One traced command: where it landed and which pages it covered.

    ``first_page`` is the device-wide cumulative page-write counter at
    the start of the command — the coordinate system ``at_page_write``
    cuts are scheduled in. Deallocate entries carry ``nlb`` trimmed
    pages but do not advance the counter.
    """

    kind: str  # "write" | "dealloc"
    index: int
    first_page: int
    lba: int
    nlb: int


@dataclass
class _Inflight:
    cmd: WriteCmd
    undo: list[bytes]  # the extent's stored pages before the write


class FaultyDevice:
    """NVMe device proxy injecting power cuts and transient errors."""

    def __init__(
        self,
        inner: NvmeDevice,
        power: PowerCutSpec | None = None,
        errors: ErrorSpec | None = None,
        trace: bool = False,
        obs=None,
    ):
        self.inner = inner
        self.env = inner.env
        self.power = power
        self.errors = errors
        self.obs = obs or MetricsRegistry(inner.env)
        self._obs_counters = {
            name: self.obs.counter(f"faults_{name}_total")
            for name in ("power_cuts", "torn_write_cmds", "torn_pages",
                         "errors_injected", "timeouts_injected",
                         "commands_after_cut")
        }
        self.trace: list[TraceEntry] | None = [] if trace else None
        self.cut_event: Event = inner.env.event()
        self.pages_seen = 0
        self._cmd_index = 0
        self._lost = False
        self._rng_torn = random.Random(power.seed if power else 0)
        self._rng_errors = random.Random(errors.seed if errors else 0)
        self._inflight: dict[int, _Inflight] = {}
        self._inflight_next = 0
        self._fail_counts: dict[int, int] = {}
        self._forced: list[list] = []  # [lo, hi, remaining, kind, opcode]
        if power is not None and power.at_time is not None:
            self.env.process(self._watch(power.at_time), name="power-cut")

    # ------------------------------------------------------------------ proxy
    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    @property
    def power_lost(self) -> bool:
        return self._lost

    def _count(self, name: str, amount: float = 1.0) -> None:
        self._obs_counters[name].inc(amount)

    # ------------------------------------------------------------------ control
    def force_errors(
        self,
        lba_lo: int,
        lba_hi: int,
        count: int = 1,
        kind: str = "error",
        opcode: str | None = None,
    ) -> None:
        """Fail the next ``count`` commands touching [lba_lo, lba_hi).

        A targeted test hook: e.g. force the metadata-region write of a
        snapshot ``finalize`` to fail and assert the promotion reverts.
        ``opcode`` restricts matching to "write"/"read"/"deallocate".
        """
        if kind not in ("error", "timeout"):
            raise ValueError("kind must be 'error' or 'timeout'")
        self._forced.append([lba_lo, lba_hi, count, kind, opcode])

    def cut_now(self) -> None:
        """Immediately cut power (tears whatever is in flight)."""
        self._cut()

    # ------------------------------------------------------------------ service
    def submit(self, cmd: NvmeCommand) -> Generator:
        if self._lost:
            self._count("commands_after_cut")
            yield self._halt()
        if isinstance(cmd, WriteCmd):
            return (yield from self._write(cmd))
        if isinstance(cmd, ReadCmd):
            return (yield from self._read(cmd))
        if isinstance(cmd, DeallocateCmd):
            return (yield from self._deallocate(cmd))
        return (yield from self.inner.submit(cmd))

    def _write(self, cmd: WriteCmd) -> Generator:
        spec = self.power
        first = self.pages_seen
        if (spec is not None and spec.at_page_write is not None
                and spec.at_page_write < first + cmd.nlb):
            # power dies while this command is being programmed
            keep = max(0, spec.at_page_write - first)
            self._persist_subset(cmd, self._survivors(cmd.nlb, keep))
            self._count("torn_write_cmds")
            self._count("torn_pages", cmd.nlb - keep)
            self._cut()
            yield self._halt()
        self.pages_seen += cmd.nlb
        if self.trace is not None:
            self.trace.append(TraceEntry("write", self._cmd_index, first,
                                         cmd.lba, cmd.nlb))
        self._cmd_index += 1
        yield from self._maybe_error(cmd, "write",
                                     self.errors.write_error_rate
                                     if self.errors else 0.0)
        token = None
        if spec is not None:
            token = self._inflight_next
            self._inflight_next += 1
            self._inflight[token] = _Inflight(cmd, self.inner.pages(cmd.lba,
                                                                    cmd.nlb))
        try:
            result = yield from self.inner.submit(cmd)
        finally:
            if token is not None:
                self._inflight.pop(token, None)
        if self._lost:
            yield self._halt()  # completion never reaches a dead host
        self._fail_counts.pop(id(cmd), None)
        return result

    def _read(self, cmd: ReadCmd) -> Generator:
        # reads are not crash boundaries and are kept out of the trace
        self._cmd_index += 1
        yield from self._maybe_error(cmd, "read",
                                     self.errors.read_error_rate
                                     if self.errors else 0.0)
        result = yield from self.inner.submit(cmd)
        if self._lost:
            yield self._halt()
        self._fail_counts.pop(id(cmd), None)
        return result

    def _deallocate(self, cmd: DeallocateCmd) -> Generator:
        if self.trace is not None:
            self.trace.append(TraceEntry("dealloc", self._cmd_index,
                                         self.pages_seen, cmd.lba, cmd.nlb))
        self._cmd_index += 1
        yield from self._maybe_error(cmd, "deallocate", 0.0)
        result = yield from self.inner.submit(cmd)
        if self._lost:
            yield self._halt()
        return result

    # ------------------------------------------------------------------ faults
    def _watch(self, at: float) -> Generator:
        yield self.env.at(at)
        self._cut()

    def _cut(self) -> None:
        if self._lost:
            return
        self._lost = True
        self._count("power_cuts")
        for entry in self._inflight.values():
            # roll the in-flight command back to a seeded surviving subset
            cmd = entry.cmd
            keep = self._rng_torn.randint(0, cmd.nlb)
            survivors = self._survivors(cmd.nlb, keep)
            if len(survivors) < cmd.nlb:
                self._count("torn_write_cmds")
                self._count("torn_pages", cmd.nlb - len(survivors))
            pages = self.inner.pages(cmd.lba, cmd.nlb)
            for i in range(cmd.nlb):
                if i not in survivors:
                    pages[i] = entry.undo[i]
            self.inner.poke(cmd.lba, pages)
        self._inflight.clear()
        if not self.cut_event.triggered:
            self.cut_event.succeed(self.env.now)

    def _survivors(self, nlb: int, keep: int) -> set[int]:
        keep = max(0, min(nlb, keep))
        if self.power is not None and self.power.torn == "shuffle":
            return set(self._rng_torn.sample(range(nlb), keep))
        return set(range(keep))

    def _persist_subset(self, cmd: WriteCmd, survivors: set[int]) -> None:
        """Materialize only ``survivors`` of a never-forwarded write."""
        if not survivors:
            return
        pages = self.inner.pages(cmd.lba, cmd.nlb)
        zero = bytes(self.inner.lba_size)
        for i in survivors:
            pages[i] = cmd.data[i] if cmd.data is not None else zero
        self.inner.poke(cmd.lba, pages)

    def _maybe_error(self, cmd: NvmeCommand, opcode: str,
                     rate: float) -> Generator:
        forced = self._match_forced(cmd, opcode)
        if forced is not None:
            yield from self._raise_injected(cmd, opcode, forced)
        spec = self.errors
        if spec is None or rate <= 0.0:
            return
        if self._fail_counts.get(id(cmd), 0) >= spec.max_failures_per_cmd:
            return
        if self._rng_errors.random() < rate:
            self._fail_counts[id(cmd)] = self._fail_counts.get(id(cmd), 0) + 1
            kind = ("timeout"
                    if self._rng_errors.random() < spec.timeout_fraction
                    else "error")
            yield from self._raise_injected(cmd, opcode, kind)

    def _raise_injected(self, cmd: NvmeCommand, opcode: str,
                        kind: str) -> Generator:
        spec = self.errors or ErrorSpec()
        if kind == "timeout":
            self._count("timeouts_injected")
            yield self.env.timeout(spec.timeout_latency)
            raise NvmeTimeout(f"injected {opcode} timeout at lba {cmd.lba}",
                              opcode=opcode, lba=cmd.lba)
        self._count("errors_injected")
        yield self.env.timeout(spec.error_latency)
        raise NvmeError(f"injected {opcode} error at lba {cmd.lba}",
                        opcode=opcode, lba=cmd.lba)

    def _match_forced(self, cmd: NvmeCommand, opcode: str) -> str | None:
        for entry in self._forced:
            lo, hi, remaining, kind, op = entry
            if remaining <= 0:
                continue
            if op is not None and op != opcode:
                continue
            if cmd.lba < hi and cmd.lba + cmd.nlb > lo:
                entry[2] -= 1
                return kind
        return None

    def _halt(self) -> Event:
        # an event that never fires: the host-visible face of a dead drive
        return self.env.event()
