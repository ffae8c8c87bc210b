#!/usr/bin/env python3
"""Telemetry tour: the same workload on both systems, fully recorded.

Runs one redis-benchmark-shaped workload (with a mid-run snapshot and a
final recovery) against the baseline kernel path and against SlimIO,
and exports the :class:`repro.obs.MetricsRegistry` every layer of a
built system books into (``system.obs``) three ways:

* ``<name>.jsonl``       — the full record stream (spans, events,
  instruments); feed it to ``python -m repro.obs summarize``
* ``<name>.prom``        — Prometheus exposition text
* ``<name>.trace.json``  — Chrome/Perfetto trace-event JSON of the
  registry's spans (what ``python -m repro.obs trace`` makes of the
  JSONL); open it at https://ui.perfetto.dev or ``chrome://tracing``

and the script closes with a side-by-side comparison of the metrics
the paper's argument hangs on: write amplification, WAL-buffer stalls,
and how many submissions needed a syscall. Its last lines are the
tallies no registry holds: the bytes each system's WAL and snapshot
data planes copied on the host (:func:`repro.nvme.copies.copy_tallies`),
and the zlib work of the whole process
(:func:`repro.persist.compress.tallies`), which the two systems share
through the chunk memo.

    PYTHONPATH=src python examples/telemetry_tour.py [output_dir]
"""

import json
import sys
from pathlib import Path

from repro import SnapshotKind, build_baseline, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.nvme.copies import STAGES, copy_tallies
from repro.obs import perfetto_trace, prometheus_text, write_jsonl
from repro.persist.compress import tallies
from repro.workloads import RedisBenchWorkload


def run(name, builder, scale, outdir):
    system = builder(config=scale.system_config(gc_pressure=False))
    registry = system.obs

    workload = RedisBenchWorkload(
        clients=16, total_ops=6000, key_count=400, value_size=4096,
        snapshot_at_fraction=0.5,
    )
    report = workload.run(system)
    system.env.run(
        until=system.env.process(system.recover(SnapshotKind.WAL_TRIGGERED))
    )
    system.stop()

    jsonl = outdir / f"{name}.jsonl"
    nrec = write_jsonl(registry, jsonl)
    (outdir / f"{name}.prom").write_text(prometheus_text(registry))
    trace = perfetto_trace((), overlays=registry.spans, run=name)
    (outdir / f"{name}.trace.json").write_text(json.dumps(trace))
    nevt = sum(e["ph"] == "X" for e in trace["traceEvents"])
    print(f"  {name}: {nrec} jsonl records, {nevt} trace slices "
          f"-> {jsonl}")
    return report, registry


def syscall_share(registry):
    """Fraction of I/O submissions that crossed the kernel boundary.

    The baseline pays a syscall per submission by construction (every
    write is ``write()``/``fsync()``); SlimIO only pays one when SQPOLL
    is asleep, so its share is enter-syscalls over ring submissions.
    """
    submitted = enters = 0.0
    for inst in registry.instruments():
        if inst.name == "uring_submitted_total":
            submitted += inst.value
        elif inst.name == "uring_enter_syscalls_total":
            enters += inst.value
    if submitted == 0:
        return 1.0  # no rings: the classic-syscall path
    return enters / submitted


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/telemetry_out")
    outdir.mkdir(parents=True, exist_ok=True)
    scale = TEST_SCALE
    print("Telemetry tour: identical workload, both I/O paths, "
          "every layer recorded\n")

    runs = {}
    copies = {}
    for name, builder in (("baseline", build_baseline),
                          ("slimio", build_slimio)):
        before = copy_tallies()
        runs[name] = run(name, builder, scale, outdir)
        copies[name] = {k: v - before[k] for k, v in copy_tallies().items()}

    print(f"\n{'metric':28s} {'baseline':>12s} {'slimio':>12s}")
    rows = [
        ("write amplification",
         lambda rep, reg: f"{reg.gauge('ftl_waf').value:.2f}"),
        ("WAL-buffer stalls",
         lambda rep, reg:
         f"{reg.total('server_wal_buffer_stalls_total'):.0f}"),
        ("syscall share of submits",
         lambda rep, reg: f"{100 * syscall_share(reg):.1f}%"),
        ("GC pages copied",
         lambda rep, reg:
         f"{reg.total('ftl_gc_pages_copied_total'):.0f}"),
        ("avg throughput (req/s)",
         lambda rep, reg: f"{rep.rps:,.0f}"),
        ("SET p999 (ms)",
         lambda rep, reg: f"{rep.set_p999 * 1e3:.2f}"),
    ]
    for label, fmt in rows:
        base, slim = fmt(*runs["baseline"]), fmt(*runs["slimio"])
        print(f"{label:28s} {base:>12s} {slim:>12s}")

    # process-wide, so in no registry: each run's share is a difference
    print("\nhost copies, WAL + snapshot data planes (MiB):")
    for stage in STAGES:
        base, slim = (copies[n][stage] / 2**20 for n in ("baseline",
                                                          "slimio"))
        print(f"  {stage:26s} {base:>12.1f} {slim:>12.1f}")

    # process-wide, so in no registry: what one system deflates depends
    # on what else the process ran
    z = tallies()
    print(f"\nzlib, both runs: {z['deflate_calls']} chunks deflated "
          f"({z['deflate_in_bytes'] / 2**20:.1f} MiB in), "
          f"{z['writer_hits']} taken from the chunk memo; "
          f"{z['inflate_calls']} inflated, {z['reader_hits']} read back "
          "from the memo")

    print(f"\nNext: python -m repro.obs summarize {outdir}/slimio.jsonl")
    print(f"      python -m repro.obs trace {outdir}/slimio.jsonl")


if __name__ == "__main__":
    main()
