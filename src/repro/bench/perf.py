"""Event-count gate: how many simulated events each experiment costs.

``python -m repro.bench perf`` runs the full experiment suite at one
scale and writes a JSON record with, per experiment, the simulated
events it executed (``sim_events``: heap dispatches plus delays
absorbed in closed form), the heap dispatches alone
(``sim_dispatched``) and whether its shape checks held. All are
deterministic — same code + scale → the same file, byte for byte, on
any machine. Host time is not recorded here; slimbench
(``BENCHMARK.json``) is the one place it is measured.

``perf --compare BASELINE CURRENT`` grades a fresh record against a
committed one and **fails** (exit 1) when any experiment's event or
dispatch count grew beyond :data:`EVENT_FACTOR`, or any CURRENT
experiment's shape checks did not hold. A tracer must add *zero*
simulator events, so the event prong is the machine-independent
"tracing off costs <5%" budget.
Intentional model growth is re-baselined by regenerating the repo-root
``BENCH_perf.json`` in the same change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scales import SCALES, get_scale
from repro.sim.engine import (
    track_environments,
    tracked_dispatch_total,
    tracked_event_total,
)

__all__ = ["measure_suite", "compare_records", "main"]

#: per-experiment growth in simulated events or dispatches that fails
#: the gate
EVENT_FACTOR = 1.05

#: the graded counts. The logical total cannot show a dispatch that was
#: merged away or absorbed (it counts both); the dispatch count can.
_COUNTS = (("sim_events", "simulated events"),
           ("sim_dispatched", "heap dispatches"))


def measure_suite(scale) -> dict:
    """Run every experiment once at ``scale``; per-experiment counts."""
    experiments = {}
    for name, fn in EXPERIMENTS.items():
        track_environments(True)
        try:
            result = fn(scale)
            events = tracked_event_total()
            dispatched = tracked_dispatch_total()
        finally:
            track_environments(False)
        experiments[name] = {
            "sim_events": events,
            "sim_dispatched": dispatched,
            "shapes_hold": result.shapes_hold,
        }
        print(f"  {name:<12s} {events:>10d} events {dispatched:>10d} "
              f"dispatched", file=sys.stderr)
    return {
        "scale": scale.name,
        "experiments": experiments,
        "total_sim_events": sum(
            e["sim_events"] for e in experiments.values()),
    }


def _measure(scale_name: str, out_path: str) -> int:
    scale = get_scale(scale_name)
    print(f"measuring suite at scale '{scale.name}' ...", file=sys.stderr)
    record = {
        "description": "SlimIO reproduction simulated-event counts "
                       "(see docs/PERFORMANCE.md)",
        **measure_suite(scale),
    }
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"(perf record written to {out})", file=sys.stderr)
    return 0


def compare_records(base: dict, curr: dict) -> list[str]:
    """Grade CURRENT against BASELINE; returns the failures.

    Simulated event and dispatch counts are deterministic — same code,
    same scale, same count — so per-experiment growth of either beyond
    :data:`EVENT_FACTOR` fails outright (a tracer schedules zero
    events, so any growth here is real model work, not observation).
    So does a CURRENT experiment whose paper-shape checks did not hold.
    """
    failures: list[str] = []
    base_exp = base["experiments"]
    curr_exp = curr["experiments"]
    for name in sorted(set(base_exp) | set(curr_exp)):
        row = curr_exp.get(name, {})
        if not row.get("shapes_hold", True):
            failures.append(f"{name}: paper-shape checks did not hold")
        base_row = base_exp.get(name, {})
        if not base_row.get("sim_events") or not row.get("sim_events"):
            # an experiment added or retired since the baseline — the
            # suite totals are incomparable, but that is intentional
            # model growth, not a regression
            print(f"note: experiment '{name}' only in "
                  f"{'current' if row.get('sim_events') else 'baseline'} "
                  f"record; regenerate BENCH_perf.json to rebaseline")
            continue
        for field, noun in _COUNTS:
            b, c = base_row.get(field), row.get(field)
            if not b or not c:
                print(f"note: {name} has no {field} in the "
                      f"{'current' if not c else 'baseline'} record; "
                      f"regenerate BENCH_perf.json to rebaseline")
            elif c > b * EVENT_FACTOR:
                failures.append(
                    f"{name}: {noun} grew {b} -> {c} "
                    f"({c / b:.3f}x > {EVENT_FACTOR:.2f}x); event counts "
                    f"are deterministic, so this is real added work")
            elif c != b:
                print(f"note: {name} {noun} changed {b} -> {c} "
                      f"(within {EVENT_FACTOR:.2f}x budget)")
    return failures


def _load_record(path: str) -> dict:
    """A perf record ``compare_records`` can grade. Raises ``OSError``
    (unreadable), ``ValueError`` (not JSON, truncated) or
    ``KeyError``/``TypeError`` (no event total or no experiments)."""
    record = json.loads(Path(path).read_text())
    if not (record["total_sim_events"] and record["experiments"]):
        raise ValueError(f"{path}: the suite is empty")
    return record


def _compare(base_path: str, curr_path: str) -> int:
    unusable = (OSError, ValueError, KeyError, TypeError)
    try:
        base = _load_record(base_path)
    except unusable as exc:
        # nothing to grade against is not a perf regression
        print(f"perf compare skipped: no baseline: {exc!r}", file=sys.stderr)
        return 0
    try:
        curr = _load_record(curr_path)
    except unusable as exc:
        # the measurement that was supposed to be graded is missing or
        # cut short: that is a failed gate, never a pass
        print(f"::error ::perf-smoke: current record unusable: {exc!r}")
        return 1
    failures = compare_records(base, curr)
    for msg in failures:
        print(f"::error ::perf-smoke: {msg}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Record simulated-event counts / compare two records.",
    )
    parser.add_argument("--scale", default="test", choices=SCALES,
                        help="scale preset to measure (default: test)")
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path (default: BENCH_perf.json)")
    parser.add_argument("--compare", nargs=2,
                        metavar=("BASELINE", "CURRENT"),
                        help="compare two perf records instead of "
                             "measuring")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    return _measure(args.scale, args.out)


if __name__ == "__main__":
    sys.exit(main())
