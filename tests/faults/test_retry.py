"""Ring retry-with-backoff against injected NVMe errors.

The contract the error lane relies on: transient ``NvmeError`` /
``NvmeTimeout`` failures are retried with bounded exponential backoff
while the command slot is held; exhausting the budget fails the
completion event with the last error and counts a giveup.
"""

import pytest

from repro.faults import FaultyDevice
from repro.kernel import PassthruQueuePair
from repro.kernel.iouring import RetryPolicy
from repro.nvme import NvmeError, WriteCmd
from repro.obs import MetricsRegistry

from tests.faults.conftest import drive


def _completed(ring) -> int:
    return ring.obs.histogram("uring_completion_seconds",
                              ring=ring.name).count


def test_backoff_schedule():
    p = RetryPolicy()  # base 50us, doubling, capped at 2ms
    assert p.backoff(1) == pytest.approx(50e-6)
    assert p.backoff(2) == pytest.approx(100e-6)
    assert p.backoff(3) == pytest.approx(200e-6)
    capped = RetryPolicy(backoff_base=1e-3, backoff_cap=1.5e-3)
    assert capped.backoff(2) == pytest.approx(1.5e-3)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)


def test_transient_errors_absorbed_by_retries(env, device, account):
    page = device.lba_size
    faulty = FaultyDevice(device)
    ring = PassthruQueuePair(env, faulty)
    faulty.force_errors(0, 1, count=2, opcode="write")

    def proc():
        yield from ring.submit_and_wait(
            WriteCmd(lba=0, nlb=1, data=[b"r" * page]), account)

    drive(env, proc())
    assert ring.obs.total("uring_nvme_errors_total") == 2
    assert ring.obs.total("uring_retries_total") == 2
    assert ring.obs.total("uring_retry_giveups_total") == 0
    assert _completed(ring) == 1
    assert device.peek(0) == b"r" * page
    # both backoffs elapsed (50 + 100 us) on top of the error latency
    assert env.now >= 150e-6


def test_bounded_giveup_fails_the_completion(env, device, account):
    page = device.lba_size
    faulty = FaultyDevice(device)
    ring = PassthruQueuePair(env, faulty)  # max_attempts=4
    faulty.force_errors(0, 1, count=99, opcode="write")

    def proc():
        try:
            yield from ring.submit_and_wait(
                WriteCmd(lba=0, nlb=1, data=[bytes(page)]), account)
        except NvmeError as exc:
            return exc
        return None

    exc = drive(env, proc())
    assert isinstance(exc, NvmeError)
    # all four attempts failed
    assert ring.obs.total("uring_nvme_errors_total") == 4
    assert ring.obs.total("uring_retries_total") == 3
    assert ring.obs.total("uring_retry_giveups_total") == 1
    assert _completed(ring) == 0
    assert ring.inflight == 0  # the slot was released on giveup


def test_max_attempts_one_disables_retries(env, device, account):
    page = device.lba_size
    faulty = FaultyDevice(device)
    ring = PassthruQueuePair(env, faulty,
                             retry=RetryPolicy(max_attempts=1))
    faulty.force_errors(0, 1, count=1, opcode="write")

    def proc():
        try:
            yield from ring.submit_and_wait(
                WriteCmd(lba=0, nlb=1, data=[bytes(page)]), account)
        except NvmeError:
            return "failed"

    assert drive(env, proc()) == "failed"
    assert ring.obs.total("uring_retries_total") == 0
    assert ring.obs.total("uring_retry_giveups_total") == 1


def test_retry_none_surfaces_the_first_error(env, device, account):
    page = device.lba_size
    faulty = FaultyDevice(device)
    ring = PassthruQueuePair(env, faulty, retry=None)
    faulty.force_errors(0, 1, count=1, opcode="write")

    def proc():
        try:
            yield from ring.submit_and_wait(
                WriteCmd(lba=0, nlb=1, data=[bytes(page)]), account)
        except NvmeError:
            return "failed"

    assert drive(env, proc()) == "failed"
    assert ring.obs.total("uring_retries_total") == 0
    assert ring.obs.total("uring_retry_giveups_total") == 1


def test_retry_counters_reach_obs(env, device, account):
    page = device.lba_size
    faulty = FaultyDevice(device)
    registry = MetricsRegistry(env, name="retry-test")
    ring = PassthruQueuePair(env, faulty, name="test-ring",
                             obs=registry)
    faulty.force_errors(0, 1, count=1, opcode="write")

    def proc():
        yield from ring.submit_and_wait(
            WriteCmd(lba=0, nlb=1, data=[bytes(page)]), account)

    drive(env, proc())
    assert registry.counter("uring_retries_total",
                            ring="test-ring").value == 1
    assert registry.counter("uring_retry_giveups_total",
                            ring="test-ring").value == 0
