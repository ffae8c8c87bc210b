"""Block layer: request queueing in front of the device.

Models the blk-mq stage the traditional path must cross. A bounded
in-flight window provides queueing backpressure, and commands dispatch
in arrival order: the ``none`` scheduler, the paper's baseline setting
(§5.1).

I/O passthru (`repro.kernel.iouring.PassthruQueuePair`) skips this
layer entirely.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.kernel.costs import BIO_SUBMIT_COST
from repro.nvme import NvmeCommand, NvmeDevice
from repro.obs.registry import MetricsRegistry
from repro.sim import Environment, Resource

__all__ = ["BlockLayer"]


class BlockLayer:
    """FIFO dispatch queue between a file system / writeback and one
    device."""

    def __init__(
        self,
        env: Environment,
        device: NvmeDevice,
        inflight_limit: int = 32,
        obs=None,
    ):
        if inflight_limit < 1:
            raise ValueError("inflight_limit must be >= 1")
        self.env = env
        self.device = device
        self._slots = Resource(env, capacity=inflight_limit)
        self.obs = obs or MetricsRegistry(env)
        self._obs_queue_wait = self.obs.histogram("block_queue_wait_seconds")
        self._obs_cmds = {
            True: self.obs.counter("block_cmds_total", sync="true"),
            False: self.obs.counter("block_cmds_total", sync="false"),
        }

    def submit(self, cmd: NvmeCommand, sync: bool = False) -> Generator:
        """Carry one command through queueing and device service.

        Returns the device's result (read data for reads). The caller
        pays: bio setup CPU, queueing, device service time. ``sync``
        only labels the command count: dispatch order ignores it.
        """
        yield self.env.timeout(BIO_SUBMIT_COST)
        t_q = self.env.now
        req = self._slots.request()
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
