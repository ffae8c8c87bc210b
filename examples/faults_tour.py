#!/usr/bin/env python3
"""Fault-injection tour: torn writes, ring retries, and a crash matrix.

Three short acts, all seeded and deterministic:

1. **Torn write** — wrap the NVMe device in a
   :class:`repro.faults.FaultyDevice`, cut power in the middle of a
   4-page command, and inspect which bytes survived under both torn
   models (in-order ``prefix`` vs out-of-order ``shuffle``).
2. **Transient errors** — force NVMe failures on a passthru ring and
   watch the bounded retry-with-backoff absorb them (and give up when
   the budget runs out).
3. **Crash matrix** — the full harness on a small campaign: replay one
   workload, kill power at a dozen page-write boundaries, recover on
   each surviving image, and check the recovered keyspace against the
   acknowledged-write prefix. Closes with the transient-error lane.

    PYTHONPATH=src python examples/faults_tour.py
"""

from repro.faults import FaultyDevice, PowerCutSpec
from repro.faults.harness import (
    CrashMatrixConfig,
    run_crash_matrix,
    run_error_lane,
)
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme import NvmeDevice, NvmeError, WriteCmd, split_pages
from repro.sim import Environment

NAND = NandTiming(page_read=2e-6, page_program=5e-6,
                  block_erase=20e-6, channel_transfer=0.5e-6)


def make_device(env):
    geometry = FlashGeometry(channels=1, dies_per_channel=2,
                             blocks_per_die=24, pages_per_block=16)
    ftl = FtlConfig(op_ratio=0.2, gc_trigger_segments=3,
                    gc_stop_segments=4, gc_reserve_segments=2)
    return NvmeDevice(env, geometry, NAND, ftl)


def act_1_torn_writes():
    print("1. Torn writes: power dies two pages into a 4-page command\n")
    for torn in ("prefix", "shuffle"):
        env = Environment()
        device = make_device(env)
        faulty = FaultyDevice(device, power=PowerCutSpec(
            at_page_write=2, torn=torn, seed=7))
        page = device.lba_size
        payload = b"".join(bytes([i + 1]) * page for i in range(4))
        env.process(faulty.submit(
            WriteCmd(lba=0, nlb=4, data=split_pages(payload, page))))
        env.run(until=faulty.cut_event)
        # offline inspection of the dead device's surviving bytes — the
        # host-side rings hang after the cut by design
        survived = [i for i in range(4)
                    if device.peek(i)  # slimlint: ignore[SLIM001]
                    == payload[i * page:(i + 1) * page]]
        torn_pages = faulty.obs.total("faults_torn_pages_total")
        print(f"   torn={torn:7s}: pages {survived} persisted, "
              f"{int(torn_pages)} torn away "
              f"(host never saw a completion)")
    print()


def act_2_retries():
    print("2. Transient NVMe errors vs the ring's retry-with-backoff\n")
    env = Environment()
    device = make_device(env)
    faulty = FaultyDevice(device)
    ring = PassthruQueuePair(env, faulty)  # max_attempts=4
    account = CpuAccount(env, "faults-tour")
    page = device.lba_size

    def count(name):
        return int(ring.obs.total(f"uring_{name}_total"))

    faulty.force_errors(0, 1, count=2, opcode="write")   # transient
    faulty.force_errors(8, 9, count=99, opcode="write")  # hopeless

    def proc():
        yield from ring.submit_and_wait(
            WriteCmd(lba=0, nlb=1, data=[b"A" * page]), account)
        print(f"   lba 0: durable after 2 injected errors "
              f"({count('retries')} retries, "
              f"t={env.now * 1e6:.0f} us of backoff+latency)")
        try:
            yield from ring.submit_and_wait(
                WriteCmd(lba=8, nlb=1, data=[b"B" * page]), account)
        except NvmeError as exc:
            print(f"   lba 8: gave up after "
                  f"{count('nvme_errors') - 2} failed attempts "
                  f"-> {type(exc).__name__} surfaced to the host")

    env.run(until=env.process(proc()))
    print(f"   ring counters: {count('nvme_errors')} errors, "
          f"{count('retries')} retries, "
          f"{count('retry_giveups')} giveup(s)\n")


def act_3_crash_matrix():
    print("3. Crash matrix: kill power everywhere, recover, compare\n")
    small = dict(ops=18, keys=6, snapshot_at=6, wal_trigger_bytes=8 * 1024,
                 max_cuts=12, aftershock_ops=4)
    for torn in ("prefix", "shuffle"):
        report = run_crash_matrix(CrashMatrixConfig(torn=torn, **small))
        s = report.summary()
        verdict = "ok" if report.ok else "FAIL"
        print(f"   torn={torn:7s}: {verdict} — {int(s['cuts'])} cuts over "
              f"{int(s['total_pages'])} page writes, "
              f"{int(s['torn_tails'])} torn tails, max durability lead "
              f"{int(s['max_durability_lead'])} op(s)")
        assert report.ok, [o.issues for o in report.failures]

    lane = run_error_lane(CrashMatrixConfig(ops=24))
    print(f"   error-lane: {'ok' if lane.ok else 'FAIL'} — "
          f"{int(lane.errors_injected + lane.timeouts_injected)} faults "
          f"injected, {int(lane.retries)} ring retries, "
          f"{int(lane.giveups)} giveups, nothing acknowledged was lost")
    assert lane.ok
    print("\nNext: PYTHONPATH=src python -m repro.faults --cuts all")
    print("      docs/FAULTS.md has the six bugs this matrix flushed out")


def main():
    print("Fault-injection tour: the crash windows behind SlimIO's "
          "recovery story\n")
    act_1_torn_writes()
    act_2_retries()
    act_3_crash_matrix()


if __name__ == "__main__":
    main()
