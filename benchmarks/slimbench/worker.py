"""One workload, in this (fresh) process; prints one JSON document.

Started by :mod:`benchmarks.slimbench.launch`, never imported by it:
the interpreter must come up with ``PYTHONHASHSEED=0`` and
``SLIMIO_NO_COMPILED=1`` already set, imports are part of ``setup_s``,
and ``ru_maxrss`` must belong to one workload.

A *timed* run is R replications (fresh systems, sub-seeds
``seed * stride + r``): replication 0 is a discarded warm-up, the rest
feed the metrics. A *traced* run spends three replications of one
sub-seed — untraced reference, request tracer on, cProfile on — and
runs the microbenchmarks.
"""

from __future__ import annotations

import time

_T_IMPORT = time.process_time()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.obs import validate_trace, write_trace_jsonl  # noqa: E402
from repro.sim.compiled import engine_backend  # noqa: E402

from . import ledger, micro, refkernel, scenarios, systems  # noqa: E402
from .metrics import BY_NAME, COMMON, PER_LAYER, WORKLOAD_METRICS  # noqa: E402
from .report import quartiles  # noqa: E402

IMPORT_S = time.process_time() - _T_IMPORT

HERE = Path(__file__).resolve().parent
TRACER_KW = {"sample_every": 1, "keep_slowest": 0,
             "background_capacity": 1 << 22}


def load_params(name: str, smoke: bool) -> tuple[dict, dict]:
    params = json.loads((HERE / "params.json").read_text())
    wl = dict(params["workloads"][name])
    if smoke:
        wl.update(params["smoke"][name])
    return params, wl


def replications_for(wl: dict, seconds: float) -> int:
    """How many replications (warm-up included) fill ``seconds`` at the
    workload's frozen nominal cost — a pure function of its arguments,
    so the simulated-clock metrics of a run stay deterministic."""
    return max(3, int(seconds / wl["nominal_unit_s"]))


def _source_digest() -> str:
    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(name: str, seed: int, params: dict, wl: dict,
               subseeds: list[int]) -> dict:
    cfg = systems.system_config(params, wl)
    return {
        "git_commit": _git_commit(),
        "src_repro_digest": _source_digest(),
        "workload_params": wl,
        "model_params": {k: params[k] for k in ("device", "server", "system")},
        "lanes": {"batched": cfg.batched, "fast_sim": cfg.fast_sim,
                  "fast_forward": cfg.fast_forward},
        "engine_backend": engine_backend(),
        "seed": seed,
        "subseeds": subseeds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "import_cpu_s": IMPORT_S,
    }


def _spread(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"best": min(values), "median": med, "q1": q1, "q3": q3,
            "n": len(values), "best_index": values.index(min(values)),
            "all": values}


def _metric(name: str, value: float, samples: int, spread: dict | None = None):
    m = BY_NAME[name]
    out = {"value": value, "unit": m.unit, "clock": m.clock,
           "better": m.better, "bound": m.bound, "samples": samples}
    if spread is not None:
        out["spread"] = spread
    return out


def _one(name, params, wl, subseed, tracer_kw=None, profiler=None):
    gc.collect()
    return scenarios.run_replication(name, params, wl, subseed,
                                     tracer_kw=tracer_kw, profiler=profiler)


def run_timed(name: str, seed: int, replications: int, smoke: bool) -> dict:
    params, wl = load_params(name, smoke)
    subseeds = [seed * params["subseed_stride"] + r
                for r in range(replications)]
    reps, cpu = [], []
    refkernel.sample()                   # builds the kernel's store
    kernel_s = []
    for sub in subseeds:
        rep, phases = _one(name, params, wl, sub)
        reps.append(rep)
        cpu.append(phases)
        kernel_s.append(refkernel.sample())
    reps, cpu = reps[1:], cpu[1:]        # replication 0 warms the process
    values, samples, misses = ledger.end_to_end(name, wl, reps,
                                                floors=not smoke)
    # reference-speed seconds: see refkernel.py
    speed = refkernel.NOMINAL_S / min(kernel_s)
    setup = _spread([c["setup"] for c in cpu])
    measured = _spread([c["measured"] for c in cpu])
    setup["speed_factor"] = measured["speed_factor"] = speed
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        "setup_s": _metric("setup_s",
                           (IMPORT_S + setup["median"]) * speed,
                           len(cpu), setup),
        "host_cpu_s": _metric("host_cpu_s", measured["best"] * speed,
                              len(cpu), measured),
        "host_peak_rss_mb": _metric(
            "host_peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    for m, v in values.items():
        metrics[m] = _metric(m, v, samples[m])
    metrics["ops_failed"] = _metric("ops_failed", failed, attempted)
    expected = {m.name for m in COMMON} | set(WORKLOAD_METRICS[name])
    if set(metrics) != expected:
        misses.append(f"metric set {sorted(set(metrics) ^ expected)} "
                      "differs from metrics.py")
    return {
        "workload": name, "seed": seed, "mode": "timed", "smoke": smoke,
        "correct": not misses and failed == 0,
        "attempted": attempted, "failed": failed, "misses": misses,
        "metrics": metrics,
        "check_cpu_s": statistics.median(c.get("check", 0.0) for c in cpu),
        "kernel_s": kernel_s,
        "provenance": provenance(name, seed, params, wl, subseeds),
    }


def _logical_events(rep) -> float:
    runs = [p.run for p in rep.rates] or list(rep.runs.values())
    return sum(r.counters["events_processed"] + r.counters["events_absorbed"]
               for r in runs)


def run_traced(name: str, seed: int, smoke: bool, out_dir: Path,
               micro_repeats: int) -> dict:
    params, wl = load_params(name, smoke)
    sub = seed * params["subseed_stride"] + 1
    # first, on a small heap: the spans kept below slow the collector
    micros = micro.run_micros(micro_repeats)
    _one(name, params, wl, sub - 1)                    # warm the process
    ref, ref_cpu = _one(name, params, wl, sub)
    traced, traced_cpu = _one(name, params, wl, sub, tracer_kw=TRACER_KW)
    profiler = cProfile.Profile()
    _, prof_cpu = _one(name, params, wl, sub, profiler=profiler)

    misses = list(ref.misses)
    if _logical_events(traced) != _logical_events(ref):
        misses.append(
            f"tracing changed the logical event total: "
            f"{_logical_events(traced):.0f} vs {_logical_events(ref):.0f}")
    out_dir.mkdir(parents=True, exist_ok=True)
    span_files = {}
    for kind in ("baseline", "slimio"):
        if kind not in traced.runs:
            continue
        tracer = traced.runs[kind].tracer
        bad = [p for ctx in tracer.kept.values() for p in validate_trace(ctx)]
        if bad:
            misses.append(f"{kind}: {len(bad)} trace problems, first: {bad[0]}")
        path = out_dir / f"{name}.{kind}.trace.jsonl"
        span_files[kind] = {"path": str(path),
                            "records": write_trace_jsonl(path, tracer,
                                                         run=f"{name}/{kind}")}

    layers = ledger.layer_counters(wl, ref)
    layers.update(ledger.trace_layers(traced))
    layers.update(ledger.profile_layers(
        pstats.Stats(profiler).stats, ref_cpu["measured"]))
    layers["sim.host_us_per_event"] = (
        1e6 * layers["sim.host_self_s"] / layers["sim.events_dispatched"])
    layers["obs.trace_overhead_x"] = traced_cpu["measured"] / ref_cpu["measured"]
    layers["obs.profile_overhead_x"] = prof_cpu["measured"] / ref_cpu["measured"]
    layers.update({k: v["value"] for k, v in micros.items()})

    metrics = {}
    for lname, unit, better in PER_LAYER:
        # a layer the workload does not exercise reads 0
        metrics[lname] = {"value": float(layers.get(lname, 0.0)),
                          "unit": unit, "better": better}
    unknown = set(layers) - set(metrics)
    if unknown:
        misses.append(f"per-layer names not in metrics.py: {sorted(unknown)}")
    return {
        "workload": name, "seed": seed, "mode": "traced", "smoke": smoke,
        "correct": not misses and ref.failed == 0,
        "attempted": ref.attempted, "failed": ref.failed, "misses": misses,
        "metrics": metrics,
        "host_cpu_s": {"reference": ref_cpu, "traced": traced_cpu,
                       "profiled": prof_cpu},
        "micro": micros,
        "span_files": span_files,
        "provenance": provenance(name, seed, params, wl, [sub]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.slimbench.worker")
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--replications", type=int,
                    help="replications incl. the discarded warm-up")
    ap.add_argument("--seconds", type=float,
                    help="derive --replications from the frozen unit cost")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--micro-repeats", type=int, default=5)
    ap.add_argument("--out-dir", type=Path, default=Path("out/slimbench"))
    args = ap.parse_args(argv)
    if args.traced:
        doc = run_traced(args.workload, args.seed, args.smoke, args.out_dir,
                         args.micro_repeats)
    else:
        n = args.replications
        if n is None:
            _, wl = load_params(args.workload, args.smoke)
            n = replications_for(wl, args.seconds or 20.0)
        if n < 2:
            ap.error("need at least 2 replications (the first is discarded)")
        doc = run_timed(args.workload, args.seed, n, args.smoke)
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
