"""Perf regression harness: measure the simulator, record the trajectory.

``python -m repro.bench perf`` runs the full experiment suite at one
scale and writes a JSON record with, per experiment:

* wall seconds (machine- and load-dependent; interleave comparisons),
* simulated events dispatched (deterministic: same code + scale →
  same count, byte for byte),
* events per second (the honest single-machine throughput figure).

``perf --compare BASELINE CURRENT`` grades a fresh measurement against
a committed one and **fails** (exit 1) on a regression:

* wall clock beyond ``--fail-factor`` (generous — CI runners are
  noisy; ``--warn-factor`` still annotates below it), and
* simulated event count beyond ``--event-factor`` (tight, default
  1.05x: event counts are deterministic, so this is the
  machine-independent "tracing off costs <5%" overhead gate — a
  tracer must add *zero* simulator events).

``--warn-only`` is the escape hatch: every breach demotes to a
``::warning`` annotation and the exit stays 0. CI wires it to a PR
label so intentional model growth can land, visibly.

The repo-root ``BENCH_perf.json`` is the committed trajectory. Rows
this tree can no longer measure — ``seed_baseline`` (the pre-fast-lane
tree) and ``reference`` (the per-page, schedule-everything realization
deleted in PR 15) — are carried forward verbatim on regeneration so the
before/after record survives any number of refreshes, and every
regeneration appends one row to a ``trajectory`` list so the perf
history reads straight out of the committed record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scales import get_scale
from repro.sim.engine import track_environments, tracked_event_total

__all__ = ["measure_suite", "append_trajectory", "compare_records", "main"]


def measure_suite(scale) -> dict:
    """Run every experiment once at ``scale``; per-experiment metrics."""
    experiments = {}
    total_wall = 0.0
    total_events = 0
    for name, fn in EXPERIMENTS.items():
        track_environments(True)
        t0 = time.perf_counter()
        result = fn(scale)
        wall = time.perf_counter() - t0
        events = tracked_event_total()
        track_environments(False)
        experiments[name] = {
            "wall_s": round(wall, 3),
            "sim_events": events,
            "events_per_sec": round(events / wall) if wall > 0 else None,
            "shapes_hold": result.shapes_hold,
        }
        total_wall += wall
        total_events += events
        print(f"  {name:<10s} {wall:7.2f}s  {events:>10d} events",
              file=sys.stderr)
    from repro.sim.compiled import engine_backend

    return {
        "scale": scale.name,
        "config": {"engine_backend": engine_backend()},
        "experiments": experiments,
        "total_wall_s": round(total_wall, 2),
        "total_sim_events": total_events,
        "events_per_sec": (round(total_events / total_wall)
                           if total_wall > 0 else None),
    }


def append_trajectory(previous: dict, optimized: dict) -> list[dict]:
    """The previous record's trajectory plus one row for this run.

    Rows keep only the deterministic shape (scale, experiment count,
    sim events) and the headline wall/throughput numbers — enough to
    plot the perf history straight out of the committed record without
    digging through git.
    """
    rows = [dict(r) for r in previous.get("trajectory", [])
            if isinstance(r, dict)]
    rows.append({
        "scale": optimized.get("scale"),
        "experiments": len(optimized.get("experiments", {})),
        "total_wall_s": optimized.get("total_wall_s"),
        "total_sim_events": optimized.get("total_sim_events"),
        "events_per_sec": optimized.get("events_per_sec"),
    })
    return rows


def _measure(scale_name: str, out_path: str) -> int:
    scale = get_scale(scale_name)
    print(f"measuring suite at scale '{scale.name}' ...", file=sys.stderr)
    optimized = measure_suite(scale)
    payload = {
        "description": "SlimIO reproduction perf trajectory "
                       "(see docs/PERFORMANCE.md)",
        "optimized": optimized,
    }

    out = Path(out_path)
    # rows measured once on trees that no longer exist cannot be
    # regenerated from this one — carry them forward verbatim
    try:
        previous = json.loads(out.read_text())
    except (OSError, ValueError):
        previous = {}
    for carried in ("reference", "speedup_vs_reference", "seed_baseline",
                    "speedup_vs_seed_interleaved", "notes"):
        if carried in previous:
            payload[carried] = previous[carried]
    if "seed_baseline" in payload:
        seed_wall = payload["seed_baseline"].get("total_wall_s")
        if seed_wall:
            payload["speedup_vs_seed"] = round(
                seed_wall / optimized["total_wall_s"], 2)
    payload["trajectory"] = append_trajectory(previous, optimized)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"(perf record written to {out})", file=sys.stderr)
    return 0


def compare_records(base: dict, curr: dict, *, warn_factor: float = 2.0,
                    fail_factor: float = 3.0,
                    event_factor: float = 1.05) -> tuple[list[str], list[str]]:
    """Grade CURRENT against BASELINE; returns (warnings, failures).

    Wall clock is machine-dependent, so it only *fails* beyond the
    generous ``fail_factor`` (warns beyond ``warn_factor``). Simulated
    event counts are deterministic — same code, same scale, same count
    — so per-experiment growth beyond ``event_factor`` fails outright:
    this is the machine-independent form of the "tracing disabled must
    cost <5%" overhead budget (a tracer schedules zero events, so any
    growth here is real model work, not observation).
    """
    warnings: list[str] = []
    failures: list[str] = []
    base_wall = base["optimized"]["total_wall_s"]
    curr_wall = curr["optimized"]["total_wall_s"]
    factor = curr_wall / base_wall if base_wall else float("inf")
    print(f"suite wall: baseline {base_wall:.2f}s, current "
          f"{curr_wall:.2f}s ({factor:.2f}x)")
    if factor > fail_factor:
        failures.append(
            f"suite wall {curr_wall:.2f}s is {factor:.2f}x the baseline "
            f"{base_wall:.2f}s (fail threshold {fail_factor:.1f}x)")
    elif factor > warn_factor:
        warnings.append(
            f"suite wall {curr_wall:.2f}s is {factor:.2f}x the baseline "
            f"{base_wall:.2f}s (warn threshold {warn_factor:.1f}x)")

    base_exp = base["optimized"].get("experiments", {})
    curr_exp = curr["optimized"].get("experiments", {})
    for name in sorted(set(base_exp) | set(curr_exp)):
        b = base_exp.get(name, {}).get("sim_events")
        c = curr_exp.get(name, {}).get("sim_events")
        if not b or not c:
            # an experiment added or retired since the baseline — the
            # suite totals are incomparable, but that is intentional
            # model growth, not a regression
            print(f"note: experiment '{name}' only in "
                  f"{'current' if c else 'baseline'} record; "
                  f"regenerate BENCH_perf.json to rebaseline")
            continue
        if c > b * event_factor:
            failures.append(
                f"{name}: simulated events grew {b} -> {c} "
                f"({c / b:.3f}x > {event_factor:.2f}x); event counts "
                f"are deterministic, so this is real added work")
        elif c != b:
            print(f"note: {name} simulated events changed {b} -> {c} "
                  f"(within {event_factor:.2f}x budget)")
    return warnings, failures


def _load_record(path: str) -> dict:
    """A perf record ``compare_records`` can grade. Raises ``OSError``
    (unreadable), ``ValueError`` (not JSON, truncated) or
    ``KeyError``/``TypeError`` (no ``optimized`` suite with a wall
    total and at least one experiment)."""
    record = json.loads(Path(path).read_text())
    suite = record["optimized"]
    if not (suite["total_wall_s"] and suite["experiments"]):
        raise ValueError(f"{path}: the optimized suite is empty")
    return record


def _compare(base_path: str, curr_path: str, warn_factor: float,
             fail_factor: float, event_factor: float,
             warn_only: bool) -> int:
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
    warnings, failures = compare_records(
        base, curr, warn_factor=warn_factor, fail_factor=fail_factor,
        event_factor=event_factor)
    for msg in warnings:
        print(f"::warning ::perf-smoke: {msg}")
    if failures and warn_only:
        # escape hatch (CI: 'perf-exempt' PR label) — keep the breach
        # visible as annotations but let the build pass
        for msg in failures:
            print(f"::warning ::perf-smoke (exempted): {msg}")
        return 0
    for msg in failures:
        print(f"::error ::perf-smoke: {msg}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Measure simulator throughput / compare perf records.",
    )
    parser.add_argument("--scale", default="test",
                        help="scale preset to measure (default: test)")
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path (default: BENCH_perf.json)")
    parser.add_argument("--compare", nargs=2,
                        metavar=("BASELINE", "CURRENT"),
                        help="compare two perf records instead of "
                             "measuring")
    parser.add_argument("--warn-factor", type=float, default=2.0,
                        help="annotate when CURRENT suite wall exceeds "
                             "BASELINE by this factor (default: 2.0)")
    parser.add_argument("--fail-factor", type=float, default=3.0,
                        help="fail (exit 1) when CURRENT suite wall "
                             "exceeds BASELINE by this factor "
                             "(default: 3.0)")
    parser.add_argument("--event-factor", type=float, default=1.05,
                        help="fail when any experiment's deterministic "
                             "simulated-event count exceeds BASELINE by "
                             "this factor (default: 1.05)")
    parser.add_argument("--warn-only", action="store_true",
                        help="demote compare failures to warnings "
                             "(escape hatch; CI maps the 'perf-exempt' "
                             "PR label to this flag)")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(args.compare[0], args.compare[1], args.warn_factor,
                        args.fail_factor, args.event_factor, args.warn_only)
    return _measure(args.scale, args.out)


if __name__ == "__main__":
    sys.exit(main())
