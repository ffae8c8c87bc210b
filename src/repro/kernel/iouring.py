"""io_uring rings and NVMe I/O passthru.

:class:`IoUringRing` models one SQ/CQ pair bound to a device:

* submission: SQE prep CPU, then either an ``io_uring_enter`` syscall
  or — in **SQPOLL** mode — zero syscalls (the kernel poller thread
  picks the SQE up within its poll granularity);
* service: the command goes **directly to the NVMe device**, bypassing
  the page cache, file system, and block scheduler (this is I/O
  passthru / ``NVMe uring_cmd``), carrying its FDP placement ID;
* completion: a CQE; reaping costs a fraction of a microsecond.

Each SlimIO process creates its own ring (§4.1: the WAL-Path in the
main process, the Snapshot-Path in the snapshot process), so the two
I/O streams share *nothing* above the NVMe queues — the paper's write
isolation.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.kernel.accounting import CpuAccount
from repro.kernel.costs import KernelCosts
from repro.obs.registry import MetricsRegistry
from repro.nvme import (
    DeallocateCmd,
    NvmeCommand,
    NvmeDevice,
    NvmeError,
    ReadCmd,
    WriteCmd,
    split_pages,
)
from repro.sim import Environment, Event, Resource

__all__ = ["IoUringRing", "PassthruQueuePair", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient NVMe failures.

    Real NVMe drivers abort-and-resubmit on timeouts and retry media
    errors a bounded number of times before failing the bio. The ring
    applies this policy to :class:`~repro.nvme.NvmeError` (and its
    subclass ``NvmeTimeout``) only; any other exception is a programming
    error and surfaces immediately as a CQE error.

    ``max_attempts`` counts total tries (first attempt included), so
    ``max_attempts=1`` disables retries. Backoff before retry *k*
    (1-based) is ``backoff_base * backoff_factor ** (k - 1)``, capped at
    ``backoff_cap``.
    """

    max_attempts: int = 4
    backoff_base: float = 50e-6
    backoff_factor: float = 2.0
    backoff_cap: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("negative backoff")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, retry_index: int) -> float:
        """Delay before 1-based retry ``retry_index``."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** (retry_index - 1))


class IoUringRing:
    """One submission/completion queue pair over an NVMe device."""

    def __init__(
        self,
        env: Environment,
        device: NvmeDevice,
        costs: KernelCosts | None = None,
        sqpoll: bool = True,
        depth: int = 128,
        name: str = "ring",
        retry: RetryPolicy | None = RetryPolicy(),
        obs=None,
    ):
        if depth < 1:
            raise ValueError("ring depth must be >= 1")
        self.env = env
        self.device = device
        self.costs = costs or KernelCosts()
        self.sqpoll = sqpoll
        self.name = name
        self.retry = retry
        self._slots = Resource(env, capacity=depth)
        # Per-ring instruments (labelled by ring name).
        # uring_enter_syscalls_total vs uring_sqpoll_pickups_total is
        # the passthru-vs-syscall submission split the paper's §4.1
        # argues about: in SQPOLL mode the former stays at zero.
        self.obs = obs or MetricsRegistry(env)
        self._obs_submitted = self.obs.counter("uring_submitted_total",
                                               ring=name)
        self._obs_enters = self.obs.counter("uring_enter_syscalls_total",
                                            ring=name)
        self._obs_sqpoll = self.obs.counter("uring_sqpoll_pickups_total",
                                            ring=name)
        self._obs_latency = self.obs.histogram(
            "uring_completion_seconds", ring=name
        )
        self._obs_depth = self.obs.gauge("uring_inflight", ring=name)
        self._obs_depth.set(0.0)
        self._obs_retries = self.obs.counter("uring_retries_total",
                                             ring=name)
        self._obs_giveups = self.obs.counter("uring_retry_giveups_total",
                                             ring=name)
        self._obs_errors = self.obs.counter("uring_nvme_errors_total",
                                            ring=name)
        #: request tracer (None = tracing off). ``submit`` captures the
        #: caller's scope onto the command; the service process adopts
        #: it across the process handoff.
        self.rtrace = None
        self._cmd_seq = 0

    def submit(self, cmd: NvmeCommand, account: CpuAccount) -> Generator:
        """Submit one command; returns the completion :class:`Event`.

        Usage from a process::

            ev = yield from ring.submit(cmd, account)   # pays submit CPU
            ...                                         # do other work
            result = yield from ring.wait(ev, account)  # reap CQE
        """
        _cpu_ev = account.charge("uring", self.costs.uring_sqe_prep)
        if _cpu_ev is not None:
            yield _cpu_ev
        if not self.sqpoll:
            _cpu_ev = account.charge("syscall", self.costs.uring_enter_cost)
            if _cpu_ev is not None:
                yield _cpu_ev
            self._obs_enters.inc()
        else:
            self._obs_sqpoll.inc()
        self._cmd_seq += 1
        cmd.uring_id = f"{self.name}-{self._cmd_seq}"
        if self.rtrace is not None:
            # cross-process handoff: submit runs in the caller's
            # process, service in a fresh one — carry the scope on the
            # command itself
            handoff = self.rtrace.capture()
            if handoff is not None:
                cmd.trace_handoff = handoff
        done = self.env.event()
        self.env.process(self._service(cmd, done), name=f"{self.name}-svc")
        self._obs_submitted.inc()
        return done

    def _service(self, cmd: NvmeCommand, done: Event) -> Generator:
        t0 = self.env.now
        rt = self.rtrace
        handoff = getattr(cmd, "trace_handoff", None)
        nspan = None
        if rt is not None and handoff is not None:
            rt.adopt(handoff)
            labels = {"cmd": cmd.uring_id, "op": type(cmd).__name__}
            for k in ("lba", "nlb", "pid"):
                v = getattr(cmd, k, None)
                if v is not None:
                    labels[k] = v
            nspan = rt.open_span("nvme_cmd", "nvme", **labels)
        ok = False
        try:
            if self.sqpoll:
                yield self.env.timeout(self.costs.sqpoll_pickup)
            req = self._slots.request()
            yield req
            self._obs_depth.set(float(self._slots.count))
            attempts = 0
            while True:
                try:
                    result = yield from self.device.submit(cmd)
                    break
                except NvmeError as exc:
                    # Transient controller failure: abort-and-resubmit with
                    # bounded backoff, holding the command slot like a real
                    # driver holds the request tag across retries.
                    attempts += 1
                    self._obs_errors.inc()
                    if self.retry is None or attempts >= self.retry.max_attempts:
                        self._obs_giveups.inc()
                        self._slots.release(req)
                        done.fail(exc)
                        return
                    self._obs_retries.inc()
                    # the retry span names the failing command, so an
                    # injected-error report reads straight back to the
                    # I/O that absorbed it; it joins the command's trace
                    with self.obs.span("uring_retry", "nvme",
                                       ring=self.name, cmd=cmd.uring_id,
                                       attempt=attempts,
                                       err=type(exc).__name__):
                        yield self.env.timeout(self.retry.backoff(attempts))
                except Exception as exc:  # surfaced to the waiter as a CQE error
                    self._slots.release(req)
                    done.fail(exc)
                    return
            self._slots.release(req)
            ok = True
            self._obs_latency.observe(self.env.now - t0)
            self._obs_depth.set(float(self._slots.count))
            done.succeed(result)
        finally:
            if rt is not None and handoff is not None:
                rt.close_span(nspan, ok=ok)
                rt.release()

    def wait(self, completion: Event, account: CpuAccount) -> Generator:
        """Block on a CQE and reap it."""
        t0 = self.env.now
        value = yield completion
        account.note("ssd_wait", self.env.now - t0)
        _cpu_ev = account.charge("uring", self.costs.cqe_reap_cost)
        if _cpu_ev is not None:
            yield _cpu_ev
        return value

    def submit_and_wait(self, cmd: NvmeCommand, account: CpuAccount) -> Generator:
        ev = yield from self.submit(cmd, account)
        result = yield from self.wait(ev, account)
        return result

    @property
    def inflight(self) -> int:
        return self._slots.count


class PassthruQueuePair(IoUringRing):
    """An I/O-passthru ring with LBA-level convenience verbs.

    The unit of addressing is the device LBA (one NAND page). Byte
    packing/framing is the caller's job, exactly as with real
    ``io_uring`` NVMe passthru.
    """

    def write_pages(
        self,
        lba: int,
        data: bytes,
        account: CpuAccount,
        pid: int = 0,
    ) -> Generator:
        """Submit a page-aligned write tagged with FDP placement ``pid``
        (``data`` is split into the command's page payload)."""
        pages = split_pages(data, self.device.lba_size)
        ev = yield from self.submit(
            WriteCmd(lba=lba, nlb=len(pages), data=pages, pid=pid), account
        )
        return ev

    def read_pages(self, lba: int, nlb: int, account: CpuAccount) -> Generator:
        """Submit a read; its completion is the list of ``nlb`` pages."""
        ev = yield from self.submit(ReadCmd(lba=lba, nlb=nlb), account)
        return ev

    def deallocate(self, lba: int, nlb: int, account: CpuAccount) -> Generator:
        ev = yield from self.submit(DeallocateCmd(lba=lba, nlb=nlb), account)
        return ev
