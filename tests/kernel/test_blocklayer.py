"""Block layer scheduler tests."""

import pytest

from repro.kernel import BlockLayer, SCHED_SYNC_PRIORITY
from repro.nvme import WriteCmd

from tests.kernel.conftest import drive


def test_submit_roundtrip(env, block, device):
    page = device.lba_size

    def proc():
        yield from block.submit(WriteCmd(lba=0, nlb=1, data=bytes(page)))

    drive(env, proc())
    assert device.stats.write_cmds == 1
    assert block.obs.total("block_cmds_total", sync="false") == 1


def test_sync_flag_counted(env, block, device):
    def proc():
        yield from block.submit(
            WriteCmd(lba=0, nlb=1, data=bytes(device.lba_size)), sync=True
        )

    drive(env, proc())
    assert block.obs.total("block_cmds_total", sync="true") == 1


def test_inflight_limit_queues(env, device, costs):
    blk = BlockLayer(env, device, costs, inflight_limit=1)
    page = device.lba_size
    done = []

    def proc(i):
        yield from blk.submit(WriteCmd(lba=i, nlb=1, data=bytes(page)))
        done.append((i, env.now))

    for i in range(3):
        env.process(proc(i))
    env.run()
    # strictly serialized: each completion later than the previous
    times = [t for _, t in done]
    assert times == sorted(times)
    assert len(set(times)) == 3
    assert blk.obs.histogram("block_queue_wait_seconds",
                             sched=blk.scheduler).count == 3


def test_sync_priority_scheduler_reorders(env, device, costs):
    blk = BlockLayer(env, device, costs, scheduler=SCHED_SYNC_PRIORITY,
                     inflight_limit=1)
    page = device.lba_size
    order = []

    def occupier():
        yield from blk.submit(WriteCmd(lba=0, nlb=1, data=bytes(page)))
        order.append("first")

    def async_waiter():
        yield env.timeout(1e-7)
        yield from blk.submit(WriteCmd(lba=1, nlb=1, data=bytes(page)))
        order.append("async")

    def sync_waiter():
        yield env.timeout(2e-7)  # arrives after the async request
        yield from blk.submit(WriteCmd(lba=2, nlb=1, data=bytes(page)),
                              sync=True)
        order.append("sync")

    env.process(occupier())
    env.process(async_waiter())
    env.process(sync_waiter())
    env.run()
    assert order == ["first", "sync", "async"]


def test_none_scheduler_is_fifo(env, device, costs):
    blk = BlockLayer(env, device, costs, scheduler="none", inflight_limit=1)
    page = device.lba_size
    order = []

    def submitter(tag, delay, sync):
        yield env.timeout(delay)
        yield from blk.submit(WriteCmd(lba=len(order), nlb=1, data=bytes(page)),
                              sync=sync)
        order.append(tag)

    env.process(submitter("a", 0, False))
    env.process(submitter("b", 1e-7, True))   # sync, but FIFO ignores it
    env.process(submitter("c", 2e-7, False))
    env.run()
    assert order == ["a", "b", "c"]


def test_invalid_config(env, device, costs):
    with pytest.raises(ValueError):
        BlockLayer(env, device, costs, scheduler="bogus")
    with pytest.raises(ValueError):
        BlockLayer(env, device, costs, inflight_limit=0)


def test_deadline_scheduler_prefers_reads(env, device, costs):
    from repro.kernel import SCHED_DEADLINE
    from repro.nvme import ReadCmd

    blk = BlockLayer(env, device, costs, scheduler=SCHED_DEADLINE,
                     inflight_limit=1)
    page = device.lba_size
    order = []

    def occupier():
        yield from blk.submit(WriteCmd(lba=0, nlb=1, data=bytes(page)))
        order.append("first")

    def writer():
        yield env.timeout(1e-7)
        yield from blk.submit(WriteCmd(lba=1, nlb=1, data=bytes(page)))
        order.append("write")

    def reader():
        yield env.timeout(2e-7)  # arrives after the queued write
        yield from blk.submit(ReadCmd(lba=0, nlb=1))
        order.append("read")

    env.process(occupier())
    env.process(writer())
    env.process(reader())
    env.run()
    assert order == ["first", "read", "write"]


def test_deadline_scheduler_bounds_write_starvation(env, device, costs):
    from repro.kernel import SCHED_DEADLINE
    from repro.nvme import ReadCmd

    blk = BlockLayer(env, device, costs, scheduler=SCHED_DEADLINE,
                     inflight_limit=1, write_deadline=1e-4)
    page = device.lba_size
    done = {}

    def write_victim():
        yield env.timeout(1e-7)
        yield from blk.submit(WriteCmd(lba=1, nlb=1, data=bytes(page)))
        done["write"] = env.now

    def read_storm():
        for i in range(200):
            yield env.timeout(1e-7)
            env.process(one_read(i))

    def one_read(i):
        yield from blk.submit(ReadCmd(lba=0, nlb=1))

    def occupier():
        yield from blk.submit(WriteCmd(lba=0, nlb=1, data=bytes(page)))

    env.process(occupier())
    env.process(write_victim())
    env.process(read_storm())
    env.run()
    # without promotion the write would wait for all 200 reads
    assert done["write"] < 150 * 2e-6 * 200
    assert blk.obs.total("block_deadline_promotions_total") >= 1


def test_deadline_validation(env, device, costs):
    with pytest.raises(ValueError):
        BlockLayer(env, device, costs, scheduler="mq-deadline",
                   write_deadline=0)
