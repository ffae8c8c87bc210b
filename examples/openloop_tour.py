#!/usr/bin/env python3
"""Open-loop tour: offered load, backpressure, and coordinated omission.

Part 1 compares the two arrival processes (Poisson, MMPP bursts) by
binning one schedule each. Part 2 sweeps offered load against a real
SlimIO system through the connection front end and prints the latency
curve with its knee — the first rate where p999 blows up, a point a
closed-loop harness cannot see. Part 3 replays the overload rate under
all three backpressure policies (BLOCK / SHED / DROP) and shows what
each one trades. Part 4 demonstrates coordinated omission itself: a
closed loop's SET p999 next to the open loop's on the same system past
capacity, measured from each request's intended arrival.

    PYTHONPATH=src python examples/openloop_tour.py
"""

from repro import build_slimio
from repro.bench.scales import TEST_SCALE
from repro.imdb import ClientOp
from repro.net import (
    MIXES,
    BackpressurePolicy,
    MixSpec,
    MmppArrivals,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    detect_knee,
    run_open_loop,
    summarize_point,
)
from repro.workloads import ClosedLoopWorkload
from repro.workloads.keys import make_key, make_value

KEYS = 400
VALUE = 1024
DURATION = 0.05


def part1_arrivals():
    print("=" * 64)
    print("Part 1: arrival processes (same mean rate, 10ms bins)")
    print("=" * 64)
    procs = [
        ("poisson", PoissonArrivals(2_000, seed=7)),
        ("mmpp 8x", MmppArrivals(2_000, burst=8.0, dwell_calm=0.02,
                                 dwell_burst=0.005, seed=7)),
    ]
    for name, proc in procs:
        times = proc.times(0.1, t0=0.0)
        bins = [0] * 10
        for t in times:
            bins[min(int(t / 0.01), 9)] += 1
        bar = " ".join(f"{b:4d}" for b in bins)
        print(f"  {name:8s} n={len(times):4d}  {bar}")
    print("  (MMPP piles arrivals into bursts — same offered total)")


def _system():
    system = build_slimio(
        config=TEST_SCALE.system_config(gc_pressure=False, trigger=False))
    env = system.env

    def filler():
        for i in range(KEYS):
            key = make_key(i)
            yield from system.server.execute(
                ClientOp("SET", key, make_value(key, VALUE)))

    env.run(until=env.process(filler(), name="fill"))
    system.server.reset_metrics()
    return system


def _drive(rate, policy="block", pipeline=8, mix=MIXES["ycsb_a"]):
    system = _system()
    env = system.env
    fe = NetFrontend(env, system.server, NetConfig(
        pipeline_depth=pipeline, conn_queue=16, max_inflight=128,
        policy=BackpressurePolicy(policy)))
    times = PoissonArrivals(rate, seed=17).times(DURATION, t0=env.now)
    stream = OpStream(mix, len(times), KEYS, value_size=VALUE, seed=11)
    run_open_loop(env, fe, stream, times, clients=16,
                  horizon=DURATION * 2 + 0.05)
    return summarize_point(fe, rate, len(times), DURATION), fe


def part2_sweep():
    print()
    print("=" * 64)
    print("Part 2: latency vs offered load (Poisson, YCSB-A)")
    print("=" * 64)
    print(f"  {'offered/s':>10} {'done':>6} {'p50 us':>8} "
          f"{'p99 us':>8} {'p999 us':>9}")
    points = []
    for rate in (10_000, 25_000, 50_000, 100_000, 150_000):
        p, _ = _drive(rate)
        points.append(p)
        print(f"  {rate:>10,} {p.completed:>6} {p.p50 * 1e6:>8.1f} "
              f"{p.p99 * 1e6:>8.1f} {p.p999 * 1e6:>9.1f}")
    knee = detect_knee(points, factor=4.0)
    print(f"  knee (first p999 blow-up): {knee:,}/s — past capacity the"
          if knee else "  no knee in range —",
          "open loop keeps offering load and the backlog becomes latency")
    return knee or 150_000


def part3_policies(rate):
    print()
    print("=" * 64)
    print(f"Part 3: backpressure policies at {rate:,}/s, deep pipelining")
    print("=" * 64)
    print(f"  {'policy':>6} {'done':>6} {'shed':>6} {'dropped':>8} "
          f"{'p999 ms':>8}")
    for policy in ("block", "shed", "drop"):
        p, fe = _drive(rate, policy=policy, pipeline=32)
        print(f"  {policy:>6} {p.completed:>6} {p.shed:>6} "
              f"{p.dropped_cmds:>8} {p.p999 * 1e3:>8.2f}")
    print("  BLOCK loses nothing and pays in latency; SHED answers")
    print("  -BUSY fast and keeps the completed tail lower; DROP")
    print("  closes connections (accept-overflow shaped)")


def part4_omission(rate):
    print()
    print("=" * 64)
    print(f"Part 4: coordinated omission, SET-only at {rate:,}/s")
    print("=" * 64)
    system = _system()
    report = ClosedLoopWorkload(
        clients=16, total_ops=3000, key_count=KEYS, value_size=VALUE,
    ).run(system)
    system.stop()
    p, _ = _drive(rate, mix=MixSpec(read=0.0, update=1.0))
    print(f"  closed loop SET p999 (from each op's actual start): "
          f"{report.set_p999 * 1e6:>9.1f} us")
    print(f"  open loop SET p999 (from each op's intended start): "
          f"{p.p999 * 1e6:>9.1f} us")
    print("  the closed loop waits for the server before it offers more,")
    print("  so it never sees the queue the open loop's schedule builds")


def main():
    part1_arrivals()
    knee = part2_sweep()
    part3_policies(knee)
    part4_omission(knee)


if __name__ == "__main__":
    main()
