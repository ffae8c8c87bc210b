"""CLI over recorded runs: ``python -m repro.obs <cmd> <dump.jsonl>``.

Each command reads a registry run record (``write_jsonl``) or a
causal-trace dump (``write_trace_jsonl``) through the one checked
reader; a malformed line is a one-line error and exit code 1.

* ``summarize`` — human-readable report of the dump's records.
* ``trace`` — Chrome/Perfetto trace-event JSON of the dump's spans
  (load the output in chrome://tracing or https://ui.perfetto.dev).
* ``report`` — tail-latency forensics from a causal-trace dump: the
  blame table plus the slowest requests as waterfalls with background
  GC/snapshot activity overlaid.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import DumpError, read_records, summarize_records
from repro.obs.trace import (
    format_tail_table,
    format_waterfall,
    load_trace_jsonl,
    perfetto_trace,
    tail_report,
)


def _cmd_summarize(args) -> int:
    with open(args.run, "rb") as fh:
        records = read_records(fh)
    if not records:
        print(f"{args.run}: empty run record", file=sys.stderr)
        return 1
    print(summarize_records(records))
    return 0


def _cmd_trace(args) -> int:
    with open(args.run, "rb") as fh:
        meta, contexts, background, overlays = load_trace_jsonl(fh)
    doc = perfetto_trace(contexts, background, overlays,
                         run=str(meta.get("run", "run")))
    out = args.output or (args.run.rsplit(".", 1)[0] + ".trace.json")
    with open(out, "w") as f:
        json.dump(doc, f)
    slices = sum(e["ph"] == "X" for e in doc["traceEvents"])
    print(f"wrote {slices} slices to {out}")
    return 0


def _cmd_report(args) -> int:
    with open(args.run, "rb") as fh:
        meta, contexts, background, overlays = load_trace_jsonl(fh)
    if not contexts:
        print(f"{args.run}: no traces in dump", file=sys.stderr)
        return 1
    gc_spans = [o for o in overlays if o.name == "gc_reclaim"]
    report = tail_report(
        contexts, background, gc_spans, top_k=args.top,
        stream_owners=meta["stream_owners"],
        requests_seen=meta.get("requests_seen", 0),
    )
    print(f"run: {meta.get('run', '?')}   tail forensics "
          f"(top {len(report.rows)} of {report.kept} kept traces)")
    print()
    print(format_tail_table(report))
    shown = (report.cross_tenant or report.blamed or report.rows)
    for row in shown[:args.waterfalls]:
        print()
        print(format_waterfall(row.ctx, overlays))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect recorded telemetry runs (JSONL dumps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize a dump")
    p_sum.add_argument("run", help="path to a .jsonl dump")
    p_sum.set_defaults(func=_cmd_summarize)

    p_tr = sub.add_parser("trace", help="emit Chrome/Perfetto trace-event "
                          "JSON")
    p_tr.add_argument("run", help="path to a .jsonl dump")
    p_tr.add_argument("-o", "--output", help="output path "
                      "(default: <run>.trace.json)")
    p_tr.set_defaults(func=_cmd_trace)

    p_rep = sub.add_parser(
        "report", help="tail-latency forensics from a causal-trace dump")
    p_rep.add_argument("run", help="path to a .trace.jsonl causal dump")
    p_rep.add_argument("-k", "--top", type=int, default=16,
                       help="rows in the tail table (default 16)")
    p_rep.add_argument("-w", "--waterfalls", type=int, default=3,
                       help="slowest traces rendered as waterfalls "
                            "(default 3)")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early — not an error
        sys.stderr.close()
        return 0
    except OSError as e:
        print(f"{args.run}: {e.strerror or e}", file=sys.stderr)
        return 1
    except DumpError as e:
        print(f"{args.run}: not a dump this package writes ({e})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
