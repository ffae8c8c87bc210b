"""FaultyDevice unit tests: torn writes, dead-device semantics, seeded
transient errors, and the targeted ``force_errors`` hook."""

import random

import pytest

from repro.faults import ErrorSpec, FaultyDevice, PowerCutSpec
from repro.nvme import NvmeError, NvmeTimeout, ReadCmd, WriteCmd, split_pages
from repro.obs import MetricsRegistry
from repro.sim import Environment

from tests.faults.conftest import drive, make_device


def test_power_cut_spec_validation():
    with pytest.raises(ValueError):
        PowerCutSpec()  # neither trigger set
    with pytest.raises(ValueError):
        PowerCutSpec(at_page_write=1, at_time=1.0)  # both set
    with pytest.raises(ValueError):
        PowerCutSpec(at_page_write=-1)
    with pytest.raises(ValueError):
        PowerCutSpec(at_page_write=0, torn="bogus")


def test_error_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec(write_error_rate=1.5)
    with pytest.raises(ValueError):
        ErrorSpec(max_failures_per_cmd=-1)
    with pytest.raises(ValueError):
        ErrorSpec(timeout_fraction=-0.1)


def test_torn_prefix_keeps_first_pages(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device, power=PowerCutSpec(at_page_write=2))
    payload = b"".join(bytes([i + 1]) * page for i in range(4))

    proc = env.process(faulty.submit(
        WriteCmd(lba=8, nlb=4, data=split_pages(payload, page))))
    env.run(until=faulty.cut_event)

    assert faulty.power_lost
    assert proc.is_alive  # the host never sees a completion
    stored = device.peek(8, 4)
    assert stored[: 2 * page] == payload[: 2 * page]
    assert not any(stored[2 * page:])  # torn pages keep their old content
    assert faulty.obs.total("faults_power_cuts_total") == 1
    assert faulty.obs.total("faults_torn_write_cmds_total") == 1
    assert faulty.obs.total("faults_torn_pages_total") == 2


def test_torn_shuffle_is_a_seeded_subset():
    def run(seed):
        env = Environment()
        device = make_device(env)
        page = device.lba_size
        faulty = FaultyDevice(device, power=PowerCutSpec(
            at_page_write=3, torn="shuffle", seed=seed))
        payload = b"".join(bytes([i + 1]) * page for i in range(8))
        env.process(faulty.submit(
            WriteCmd(lba=0, nlb=8, data=split_pages(payload, page))))
        env.run(until=faulty.cut_event)
        stored = device.peek(0, 8)
        return {
            i for i in range(8)
            if stored[i * page:(i + 1) * page]
            == payload[i * page:(i + 1) * page]
        }

    a = run(7)
    assert a == run(7)  # same seed, same surviving subset
    assert len(a) == 3  # exactly at_page_write pages survive


def test_at_time_cut_tears_the_inflight_command(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device, power=PowerCutSpec(at_time=2e-6, seed=11))
    payload = b"".join(bytes([i + 1]) * page for i in range(8))

    proc = env.process(faulty.submit(
        WriteCmd(lba=0, nlb=8, data=split_pages(payload, page))))
    env.run(until=faulty.cut_event)
    assert env.now == pytest.approx(2e-6)
    env.run(until=1e-3)
    assert proc.is_alive  # completion never reaches the dead host

    # prefix mode: the seeded keep-count pages survive in order
    keep = random.Random(11).randint(0, 8)
    stored = device.peek(0, 8)
    assert stored[: keep * page] == payload[: keep * page]
    assert not any(stored[keep * page:])


def test_commands_after_cut_hang_forever(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device, power=PowerCutSpec(at_page_write=0))
    p1 = env.process(faulty.submit(WriteCmd(lba=0, nlb=1, data=[bytes(page)])))
    env.run(until=faulty.cut_event)
    assert not any(device.peek(0))  # at_page_write=0: nothing persisted

    p2 = env.process(faulty.submit(ReadCmd(lba=0, nlb=1)))
    env.run(until=env.now + 1.0)
    assert p1.is_alive and p2.is_alive
    assert faulty.obs.total("faults_commands_after_cut_total") == 1


def test_cut_now_after_quiesce_keeps_completed_writes(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device)
    drive(env, faulty.submit(WriteCmd(lba=0, nlb=1, data=[b"x" * page])))
    faulty.cut_now()
    assert faulty.power_lost
    assert faulty.cut_event.triggered
    assert device.peek(0) == b"x" * page  # completed writes persist
    p = env.process(faulty.submit(ReadCmd(lba=0, nlb=1)))
    env.run(until=env.now + 1e-3)
    assert p.is_alive


def test_image_survives_reboot(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device, power=PowerCutSpec(at_page_write=5))

    def writer():
        for i in range(3):
            data = [bytes([i + 1]) * page] * 2
            yield from faulty.submit(WriteCmd(lba=i * 2, nlb=2, data=data))

    env.process(writer())
    env.run(until=faulty.cut_event)
    image = faulty.inner.image()

    env2 = Environment()
    device2 = make_device(env2)
    device2.load_image(image)
    assert device2.peek(0, 6) == device.peek(0, 6)
    assert device2.peek(4, 2)[:page] == bytes([3]) * page  # survivor
    assert not any(device2.peek(4, 2)[page:])  # torn page


def test_force_errors_targets_lba_ranges(env, device):
    page = device.lba_size
    faulty = FaultyDevice(device)
    faulty.force_errors(10, 12, count=1, kind="error", opcode="write")
    faulty.force_errors(20, 21, count=1, kind="timeout")
    with pytest.raises(ValueError):
        faulty.force_errors(0, 1, kind="explode")

    def proc():
        outcomes = []
        try:
            yield from faulty.submit(WriteCmd(lba=10, nlb=1,
                                              data=[bytes(page)]))
        except NvmeTimeout:
            outcomes.append("timeout")
        except NvmeError as exc:
            outcomes.append(("error", exc.opcode, exc.lba))
        # the budget is exhausted: the same write now succeeds
        yield from faulty.submit(WriteCmd(lba=10, nlb=1, data=[bytes(page)]))
        outcomes.append("ok")
        try:
            yield from faulty.submit(ReadCmd(lba=20, nlb=1))
        except NvmeTimeout:
            outcomes.append("read-timeout")
        return outcomes

    assert drive(env, proc()) == [("error", "write", 10), "ok",
                                  "read-timeout"]
    assert faulty.obs.total("faults_errors_injected_total") == 1
    assert faulty.obs.total("faults_timeouts_injected_total") == 1


def test_seeded_errors_are_reproducible():
    def run(seed):
        env = Environment()
        device = make_device(env)
        page = device.lba_size
        spec = ErrorSpec(seed=seed, write_error_rate=0.3,
                         timeout_fraction=0.0)
        faulty = FaultyDevice(device, errors=spec)
        failed = []
        cmds = []  # hold refs so id() never collides across iterations

        def proc():
            for i in range(40):
                cmd = WriteCmd(lba=i % 8, nlb=1, data=[bytes(page)])
                cmds.append(cmd)
                try:
                    yield from faulty.submit(cmd)
                except NvmeError:
                    failed.append(i)

        drive(env, proc())
        return failed

    assert run(5) == run(5)
    assert run(5)  # the rate is high enough that some commands fail


def test_attach_obs_mirrors_counters(env, device):
    page = device.lba_size
    registry = MetricsRegistry(env, name="faults-test")
    faulty = FaultyDevice(device, obs=registry)
    faulty.force_errors(0, 1, count=1, opcode="write")

    def proc():
        try:
            yield from faulty.submit(WriteCmd(lba=0, nlb=1,
                                              data=[bytes(page)]))
        except NvmeError:
            pass

    drive(env, proc())
    assert registry.counter("faults_errors_injected_total").value == 1
