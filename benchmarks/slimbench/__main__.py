"""``PYTHONPATH=src python -m benchmarks.slimbench`` — the one command.

    python -m benchmarks.slimbench                      # the four workloads
    python -m benchmarks.slimbench --traced             # + per-layer ledger
    python -m benchmarks.slimbench --smoke -w snap_recover
    python -m benchmarks.slimbench repeat               # run twice, must agree
    python -m benchmarks.slimbench compare A.json B.json
    python -m benchmarks.slimbench compare --parent P*.json --change C*.json

Prints every metric by name with unit, clock, sample count and bound,
checks outputs, and exits non-zero on a failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import launch, report
from .metrics import WORKLOAD_METRICS

WORKLOADS = list(WORKLOAD_METRICS)


def run_suite(args) -> dict:
    """Each workload in its own fresh subprocess, one at a time."""
    suite = {"timed": [], "traced": []}
    for w in args.workload or WORKLOADS:
        doc = launch.run_worker(w, args.seed, replications=args.replications,
                                smoke=args.smoke)
        print(report.format_doc(doc), flush=True)
        suite["timed"].append(doc)
        if args.traced:
            doc = launch.run_worker(w, args.seed, traced=True,
                                    smoke=args.smoke, out_dir=args.out_dir)
            print(report.format_doc(doc), flush=True)
            for kind, f in doc["span_files"].items():
                print(f"  spans[{kind}]: {f['records']} records -> {f['path']}")
            suite["traced"].append(doc)
    return suite


def _ok(suite: dict) -> bool:
    return all(d["correct"] for docs in suite.values() for d in docs)


def cmd_run(args) -> int:
    suite = run_suite(args)
    if args.json:
        Path(args.json).write_text(json.dumps(suite, indent=1))
    return 0 if _ok(suite) else 1


def cmd_repeat(args) -> int:
    """Two runs of the same code and seed must agree: every
    simulated-clock metric identical, every host metric within its
    bound in both directions."""
    first, second = run_suite(args), run_suite(args)
    rows = report.compare(first["timed"], second["timed"])
    print(report.format_compare(rows))
    bad = []
    for r in rows:
        p, c = r["parent"]["median"], r["change"]["median"]
        if r["clock"] == "sim":
            if p != c:
                bad.append(f"{r['workload']} {r['metric']}: {p!r} != {c!r}")
        elif abs(c - p) > r["bound"] * min(p, c):
            bad.append(f"{r['workload']} {r['metric']}: {p:.4g} vs {c:.4g} "
                       f"differ by more than {r['bound']:g}")
    for b in bad:
        print("DISAGREE:", b)
    print(f"repeat: {len(rows)} rows, {len(bad)} disagreements")
    return 0 if not bad and _ok(first) and _ok(second) else 1


def _load(paths: list[str]) -> list[dict]:
    docs = []
    for p in paths:
        data = json.loads(Path(p).read_text())
        docs += data["timed"] if "timed" in data else [data]
    return docs


def cmd_compare(args) -> int:
    if args.parent or args.change:
        parent, change = _load(args.parent or []), _load(args.change or [])
    elif len(args.files) == 2:
        parent, change = _load(args.files[:1]), _load(args.files[1:])
    else:
        print("compare: give two files, or --parent ... --change ...",
              file=sys.stderr)
        return 2
    rows = report.compare(parent, change)
    print(report.format_compare(rows))
    worse = [r for r in rows if r["verdict"] == "WORSE"]
    print(f"compare: {len(rows)} rows, {len(worse)} worse than their bound, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.slimbench",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("command", nargs="?", default="run",
                    choices=("run", "repeat", "compare"))
    ap.add_argument("files", nargs="*", help="compare: A.json B.json")
    ap.add_argument("-w", "--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--replications", type=int, default=8,
                    help="per workload, incl. the discarded warm-up "
                         "(default 8: best of 7)")
    ap.add_argument("--traced", action="store_true",
                    help="also run the traced passes: per-layer metrics, "
                         "span files, microbenchmarks")
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-sized inputs; sample floors off")
    ap.add_argument("--out-dir", default="out/slimbench")
    ap.add_argument("--json", help="run: write the suite's documents here")
    ap.add_argument("--parent", nargs="+")
    ap.add_argument("--change", nargs="+")
    args = ap.parse_args(argv)
    try:
        return {"run": cmd_run, "repeat": cmd_repeat,
                "compare": cmd_compare}[args.command](args)
    except launch.WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
