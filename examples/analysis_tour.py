#!/usr/bin/env python3
"""slimcheck tour: the linter and the runtime sanitizers, end to end.

Part 1 runs **slimlint** over a deliberately broken snippet and prints
the diagnostics it produces (then shows a pragma silencing one of
them). Part 2 stands up a sanitized SlimIO system, runs a clean
workload, and then injects a write into a *published* snapshot slot —
the exact kind of silent placement bug that would corrupt the last
durable image while every test still passes — and shows the sanitizer
rejecting it at the device boundary.

    PYTHONPATH=src python examples/analysis_tour.py
"""

from repro import SystemConfig, build_slimio
from repro.analysis import SanitizerError, lint_source
from repro.flash import FlashGeometry
from repro.imdb import ClientOp
from repro.nvme import WriteCmd

BROKEN = '''\
import time
import random

def resync(device, cmd):
    started = time.time()            # wall clock in a simulation
    jitter = random.random()         # unseeded randomness
    yield from device.submit(cmd)    # bypasses the kernel path
    return started + jitter
'''

FIXED_LINE = ("    yield from device.submit(cmd)"
              "  # slimlint: ignore[SLIM001]\n")


def part1_linter():
    print("=" * 64)
    print("Part 1: slimlint on a broken snippet (pretend package: imdb)")
    print("=" * 64)
    result = lint_source(BROKEN, path="snippet.py", package="imdb")
    for finding in result.findings:
        print(f"  {finding.render()}")
    assert not result.ok and len(result.findings) == 3

    print("\nafter adding '# slimlint: ignore[SLIM001]' to the submit:")
    patched = BROKEN.replace(
        "    yield from device.submit(cmd)    # bypasses the kernel path\n",
        FIXED_LINE,
    )
    result = lint_source(patched, path="snippet.py", package="imdb")
    for finding in result.findings:
        print(f"  {finding.render()}")
    print(f"  ({result.suppressed} suppressed — the other two rules "
          f"still fire)")
    assert len(result.findings) == 2 and result.suppressed == 1


def part2_sanitizer():
    print()
    print("=" * 64)
    print("Part 2: the runtime sanitizer at the device boundary")
    print("=" * 64)
    system = build_slimio(
        config=SystemConfig(
            geometry=FlashGeometry(channels=1, dies_per_channel=2,
                                   blocks_per_die=48, pages_per_block=16),
            wal_flush_interval=0.01,
            sanitize=True,
        )
    )
    env = system.env

    def workload():
        for i in range(60):
            yield from system.server.execute(
                ClientOp("SET", b"key:%d" % i, b"v" * 512))

    env.run(until=env.process(workload()))
    env.run(until=env.now + 0.1)  # let the periodic flusher drain
    summary = system.sanitizer.summary()
    print(f"clean workload: {summary['checks']} commands checked, "
          f"{summary['violations']} violations, WAF={system.waf:.2f}")

    # now impersonate a buggy snapshot path: write into a slot that
    # holds (or will hold) a *published* image instead of the reserve
    slots = system.space.slots
    victim = next(i for i in range(3) if i != slots.reserve_slot)
    base, _cap = system.space.slot_extent(victim)
    rogue = WriteCmd(
        lba=base, nlb=1, data=[b"\x00" * system.device.lba_size],
        pid=system.config.placement.wal_snapshot_pid,
    )
    print(f"\ninjecting a snapshot write into slot {victim} "
          f"(reserve is {slots.reserve_slot})...")

    def inject():
        yield from system.device.submit(rogue)  # slimlint: ignore[SLIM001]

    try:
        env.run(until=env.process(inject()))
    except SanitizerError as exc:
        print(f"caught: {exc}")
    else:
        raise SystemExit("sanitizer failed to catch the rogue write!")
    system.stop()


def main():
    part1_linter()
    part2_sanitizer()
    print("\ntour complete — see docs/ANALYSIS.md for the full rule "
          "catalogue")


if __name__ == "__main__":
    main()
