"""io_uring / passthru ring tests."""

import pytest

from repro.kernel import CpuAccount, IoUringRing, PassthruQueuePair
from repro.nvme import ReadCmd, WriteCmd

from tests.kernel.conftest import drive


def _completed(ring) -> int:
    return ring.obs.histogram("uring_completion_seconds",
                              ring=ring.name).count


def test_submit_and_wait_roundtrip(env, device, costs, account):
    ring = PassthruQueuePair(env, device, costs)
    page = device.lba_size
    payload = b"Q" * page

    def proc():
        yield from ring.submit_and_wait(WriteCmd(lba=0, nlb=1, data=[payload]),
                                        account)
        data = yield from ring.submit_and_wait(ReadCmd(lba=0, nlb=1), account)
        return data

    assert drive(env, proc()) == [payload]
    assert ring.obs.total("uring_submitted_total") == 2
    assert _completed(ring) == 2


def test_sqpoll_mode_no_syscalls(env, device, costs, account):
    ring = IoUringRing(env, device, costs, sqpoll=True)

    def proc():
        yield from ring.submit_and_wait(
            WriteCmd(lba=0, nlb=1, data=[bytes(device.lba_size)]), account)

    drive(env, proc())
    assert ring.obs.total("uring_enter_syscalls_total") == 0
    assert account.time_in("syscall") == 0


def test_non_sqpoll_pays_enter_syscall(env, device, costs, account):
    ring = IoUringRing(env, device, costs, sqpoll=False)

    def proc():
        yield from ring.submit_and_wait(
            WriteCmd(lba=0, nlb=1, data=[bytes(device.lba_size)]), account)

    drive(env, proc())
    assert ring.obs.total("uring_enter_syscalls_total") == 1
    assert account.time_in("syscall") > 0


def test_async_submission_overlaps_with_compute(env, device, costs, account):
    """Submit, compute, then reap: I/O and CPU overlap."""
    ring = PassthruQueuePair(env, device, costs)
    page = device.lba_size

    def proc():
        ev = yield from ring.write_pages(0, b"b" * page, account)
        t_submit = env.now
        yield env.timeout(50e-6)  # compute while the write is in flight
        yield from ring.wait(ev, account)
        return env.now - t_submit

    elapsed = drive(env, proc())
    # total is ~max(compute, io), not their sum
    assert elapsed == pytest.approx(50e-6, rel=0.2)


def test_ring_depth_backpressure(env, device, costs, account):
    ring = IoUringRing(env, device, costs, depth=1)
    page = device.lba_size
    events = []

    def proc():
        for i in range(3):
            ev = yield from ring.submit(
                WriteCmd(lba=i, nlb=1, data=[bytes(page)]), account)
            events.append(ev)
        for ev in events:
            yield from ring.wait(ev, account)

    drive(env, proc())
    assert _completed(ring) == 3


def test_write_pages_requires_alignment(env, device, costs, account):
    ring = PassthruQueuePair(env, device, costs)

    def proc():
        yield from ring.write_pages(0, b"unaligned", account)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


def test_pid_flows_to_fdp_device(env, costs, account):
    from repro.flash import FlashGeometry
    from repro.nvme import NvmeDevice
    from tests.kernel.conftest import FAST_NAND, SMALL_FTL

    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST_NAND, SMALL_FTL, fdp=True)
    ring = PassthruQueuePair(env, dev, costs)
    page = dev.lba_size

    # arbitrary in-range PID: the test is the PID→stream plumbing itself
    def proc():
        ev = yield from ring.write_pages(0, bytes(page), account, pid=2)  # slimlint: ignore[SLIM002]
        yield from ring.wait(ev, account)

    drive(env, proc())
    ppn = dev.ftl.mapped_ppn(0)  # slimlint: ignore[SLIM006]
    assert dev.ftl.segment_stream(dev.geometry.segment_of_page(ppn)) == 2  # slimlint: ignore[SLIM006]


def test_deallocate_verb(env, device, costs, account):
    ring = PassthruQueuePair(env, device, costs)
    page = device.lba_size

    def proc():
        ev = yield from ring.write_pages(4, b"d" * page, account)
        yield from ring.wait(ev, account)
        ev = yield from ring.deallocate(4, 1, account)
        yield from ring.wait(ev, account)

    drive(env, proc())
    assert device.ftl.mapped_ppn(4) == -1  # slimlint: ignore[SLIM006]


def test_device_error_surfaces_as_cqe_failure(env, device, costs, account):
    ring = PassthruQueuePair(env, device, costs)

    def proc():
        ev = yield from ring.submit(ReadCmd(lba=device.num_lbas, nlb=1), account)
        with pytest.raises(ValueError):
            yield from ring.wait(ev, account)

    p = env.process(proc())
    env.run(until=p)


def test_separate_rings_have_independent_depth(env, device, costs):
    a1, a2 = CpuAccount(env, "p1"), CpuAccount(env, "p2")
    ring1 = IoUringRing(env, device, costs, depth=1, name="r1")
    ring2 = IoUringRing(env, device, costs, depth=1, name="r2")
    page = device.lba_size
    done = []

    def user(ring, acct, lba, tag):
        yield from ring.submit_and_wait(
            WriteCmd(lba=lba, nlb=1, data=[bytes(page)]), acct)
        done.append(tag)

    env.process(user(ring1, a1, 0, "r1"))
    env.process(user(ring2, a2, 1, "r2"))
    env.run()
    assert sorted(done) == ["r1", "r2"]


def test_invalid_depth(env, device, costs):
    with pytest.raises(ValueError):
        IoUringRing(env, device, costs, depth=0)
