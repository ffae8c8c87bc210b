"""Block layer: request queueing and scheduling in front of the device.

Models the blk-mq stage the traditional path must cross. A bounded
in-flight window provides queueing backpressure; the scheduler decides
dispatch order:

* ``none`` — FIFO (the paper's baseline setting, §5.1).
* ``sync-priority`` — synchronous requests (WAL flush/fsync writeback)
  overtake queued asynchronous ones (snapshot writeback). This is the
  deprioritization mechanism §4 lists as a reason to bypass the
  scheduler, and is exercised by the ablation benchmarks.

I/O passthru (`repro.kernel.iouring.PassthruQueuePair`) skips this
layer entirely.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.kernel.costs import KernelCosts
from repro.nvme import NvmeCommand, NvmeDevice
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, PriorityResource, Resource

__all__ = ["BlockLayer", "SCHED_NONE", "SCHED_SYNC_PRIORITY", "SCHED_DEADLINE"]

SCHED_NONE = "none"
SCHED_SYNC_PRIORITY = "sync-priority"
SCHED_DEADLINE = "mq-deadline"


class BlockLayer:
    """Dispatch queue between a file system / writeback and one device.

    ``mq-deadline`` approximates the kernel scheduler of the same name:
    reads dispatch ahead of writes (read latency matters most to
    foreground work), but a write that has waited past
    ``write_deadline`` jumps the queue, bounding starvation.
    """

    def __init__(
        self,
        env: Environment,
        device: NvmeDevice,
        costs: KernelCosts | None = None,
        scheduler: str = SCHED_NONE,
        inflight_limit: int = 32,
        write_deadline: float = 5e-3,
        obs=None,
    ):
        if scheduler not in (SCHED_NONE, SCHED_SYNC_PRIORITY, SCHED_DEADLINE):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        if inflight_limit < 1:
            raise ValueError("inflight_limit must be >= 1")
        if write_deadline <= 0:
            raise ValueError("write_deadline must be positive")
        self.env = env
        self.device = device
        self.costs = costs or KernelCosts()
        self.scheduler = scheduler
        self.write_deadline = write_deadline
        if scheduler in (SCHED_SYNC_PRIORITY, SCHED_DEADLINE):
            self._slots: Resource = PriorityResource(env, capacity=inflight_limit)
        else:
            self._slots = Resource(env, capacity=inflight_limit)
        self.obs = obs or MetricsRegistry(env)
        self._obs_queue_wait = self.obs.histogram(
            "block_queue_wait_seconds", sched=self.scheduler
        )
        self._obs_cmds = {
            True: self.obs.counter("block_cmds_total", sync="true"),
            False: self.obs.counter("block_cmds_total", sync="false"),
        }
        self._obs_promotions = self.obs.counter(
            "block_deadline_promotions_total"
        )

    def _priority(self, cmd: NvmeCommand, sync: bool) -> float:
        if self.scheduler == SCHED_SYNC_PRIORITY:
            return 0.0 if sync else 1.0
        if self.scheduler == SCHED_DEADLINE:
            from repro.nvme import ReadCmd

            if isinstance(cmd, ReadCmd):
                return 0.0
            # writes sort by absolute deadline so aged writes overtake
            # fresh reads would-be... reads use priority 0; an expired
            # write gets promoted below read priority
            return 1.0 + self.env.now  # FIFO among writes
        return 0.0

    def submit(self, cmd: NvmeCommand, sync: bool = False) -> Generator:
        """Carry one command through queueing and device service.

        Returns the device's result (read data for reads). The caller
        pays: bio setup CPU, scheduler queueing, device service time.
        """
        yield self.env.timeout(self.costs.bio_submit_cost)
        priority = self._priority(cmd, sync)
        t_q = self.env.now
        req = self._slots.request(priority=priority)
        if self.scheduler == SCHED_DEADLINE and priority >= 1.0:
            # starvation bound: if the write is still queued at its
            # deadline, cancel and resubmit at read priority
            expiry = self.env.timeout(self.write_deadline)
            yield self.env.any_of([req, expiry])
            if not req.triggered:
                req.cancel()
                req = self._slots.request(priority=0.0)
                self._obs_promotions.inc()
                yield req
        else:
            yield req
        self._obs_queue_wait.observe(self.env.now - t_q)
        self._obs_cmds[sync].inc()
        try:
            result = yield from self.device.submit(cmd)
        finally:
            self._slots.release(req)
        return result

    @property
    def inflight(self) -> int:
        return self._slots.count

    @property
    def queued(self) -> int:
        return self._slots.queue_len
