#!/usr/bin/env python3
"""Trace tour: follow one slow SET from the server to the NAND die.

Attaches a :class:`repro.obs.RequestTracer` to a SlimIO system (WAL in
``ALWAYS`` mode, so each client waits on its own append and the causal
chain server -> store -> WAL -> io_uring -> NVMe -> NAND lands inside
the request trace), runs a redis-benchmark-shaped workload with a
mid-run snapshot, then:

* prints the tail-forensics table (top-K slowest requests, each with
  its dominant layer and — where one exists — the GC reclaim its
  critical path overlapped),
* renders the slowest request as a text waterfall with background
  GC/snapshot activity overlaid,
* walks the same trace's critical path span by span, and
* exports the whole dump as ``trace_tour.trace.jsonl`` (feed it to
  ``python -m repro.obs report``) and ``trace_tour.perfetto.json``
  (open it at https://ui.perfetto.dev).

    PYTHONPATH=src python examples/trace_tour.py [output_dir]
"""

import json
import sys
from pathlib import Path

from repro import LoggingPolicy, SystemConfig, build_slimio
from repro.obs import (
    attach_tracer,
    critical_path,
    format_tail_table,
    format_waterfall,
    perfetto_trace,
    tail_report,
    write_trace_jsonl,
)
from repro.workloads import RedisBenchWorkload


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/trace_tour")
    outdir.mkdir(parents=True, exist_ok=True)

    system = build_slimio(config=SystemConfig(policy=LoggingPolicy.ALWAYS))
    tracer = attach_tracer(system, sample_every=8, keep_slowest=12)

    workload = RedisBenchWorkload(
        clients=16, total_ops=6000, key_count=400, value_size=4096,
        snapshot_at_fraction=0.5,
    )
    workload.run(system)
    system.stop()
    tracer.drain_open()

    # registry records that joined no trace (GC reclaims, snapshots):
    # the WAL's flushes and fsyncs already sit inside the traces
    overlays = [s for s in system.obs.spans if s.trace_id is None]
    gc_spans = system.obs.spans_named("gc_reclaim")
    report = tail_report(
        tracer.kept.values(), tracer.background, gc_spans,
        top_k=10, requests_seen=tracer.requests_seen,
    )

    print(f"traced {tracer.requests_seen} requests, kept "
          f"{len(tracer.kept)} (1-in-8 head sample + 12 slowest)\n")
    print("tail forensics — the 10 slowest requests:\n")
    print(format_tail_table(report))

    slowest = report.rows[0].ctx
    print(f"\nwaterfall of the slowest request "
          f"(trace {slowest.trace_id}, {slowest.name}):\n")
    print(format_waterfall(slowest, overlays))

    print("\ncritical path (who was actually on the clock):")
    for span, a, b in critical_path(slowest.spans):
        print(f"  {(b - a) * 1e6:9.1f}us  {span.layer:<9s} {span.name}")

    jsonl = outdir / "trace_tour.trace.jsonl"
    write_trace_jsonl(jsonl, tracer, system.obs.spans, run="trace-tour")
    perfetto = outdir / "trace_tour.perfetto.json"
    perfetto.write_text(json.dumps(perfetto_trace(
        tracer.kept.values(), tracer.background, system.obs.spans,
        run="trace-tour")))
    print(f"\nwrote {jsonl} (try: python -m repro.obs report {jsonl})")
    print(f"wrote {perfetto} (open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
