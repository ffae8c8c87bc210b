"""Block layer queueing tests."""

import pytest

from repro.kernel import BlockLayer
from repro.nvme import WriteCmd

from tests.kernel.conftest import drive


def test_submit_roundtrip(env, block, device):
    page = device.lba_size

    def proc():
        yield from block.submit(WriteCmd(lba=0, nlb=1, data=[bytes(page)]))

    drive(env, proc())
    assert device.stats.write_cmds == 1
    assert block.obs.total("block_cmds_total", sync="false") == 1


def test_sync_flag_counted(env, block, device):
    def proc():
        yield from block.submit(
            WriteCmd(lba=0, nlb=1, data=[bytes(device.lba_size)]), sync=True
        )

    drive(env, proc())
    assert block.obs.total("block_cmds_total", sync="true") == 1


def test_inflight_limit_queues(env, device, costs):
    blk = BlockLayer(env, device, costs, inflight_limit=1)
    page = device.lba_size
    done = []

    def proc(i):
        yield from blk.submit(WriteCmd(lba=i, nlb=1, data=[bytes(page)]))
        done.append((i, env.now))

    for i in range(3):
        env.process(proc(i))
    env.run()
    # strictly serialized: each completion later than the previous
    times = [t for _, t in done]
    assert times == sorted(times)
    assert len(set(times)) == 3
    assert blk.obs.histogram("block_queue_wait_seconds").count == 3


def test_dispatch_is_fifo(env, device, costs):
    blk = BlockLayer(env, device, costs, inflight_limit=1)
    page = device.lba_size
    order = []

    def submitter(tag, delay, sync):
        yield env.timeout(delay)
        yield from blk.submit(WriteCmd(lba=len(order), nlb=1, data=[bytes(page)]),
                              sync=sync)
        order.append(tag)

    env.process(submitter("a", 0, False))
    env.process(submitter("b", 1e-7, True))   # sync, but dispatch ignores it
    env.process(submitter("c", 2e-7, False))
    env.run()
    assert order == ["a", "b", "c"]


def test_invalid_config(env, device, costs):
    with pytest.raises(ValueError):
        BlockLayer(env, device, costs, inflight_limit=0)
