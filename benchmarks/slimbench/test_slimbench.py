"""slimbench's own tests, on ``--smoke`` sizes (seconds, not minutes).

    PYTHONPATH=src python -m pytest benchmarks/slimbench -q

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from repro.obs import load_trace_jsonl, validate_trace

from benchmarks.slimbench import launch, report
from benchmarks.slimbench.metrics import (
    BY_NAME,
    COMMON,
    PER_LAYER,
    WORKLOAD_METRICS,
)

ROOT = launch.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = list(WORKLOAD_METRICS)


def smoke(workload: str, seed: int, **kw) -> dict:
    return launch.run_worker(workload, seed, smoke=True, replications=3,
                             micro_repeats=2, **kw)


@pytest.fixture(scope="module")
def timed() -> dict[str, dict]:
    return {w: smoke(w, 1) for w in WORKLOADS}


def sim_values(doc: dict) -> dict[str, float]:
    return {n: m["value"] for n, m in doc["metrics"].items()
            if m["clock"] == "sim"}


# ------------------------------------------------------------ the contract

def test_benchmark_json_is_the_metrics_table():
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS
    assert BENCH["paths"] == ["benchmarks/slimbench"]
    assert BENCH["command"] == ["python3", "benchmarks/slimbench/run.py"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCH["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in COMMON]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == list(PER_LAYER)
    assert "setup_s" in [m["name"] for m in BENCH["end_to_end"]]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] \
        + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names + list(BY_NAME))
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_every_workload_prints_its_metrics_and_checks_pass(timed):
    for w, doc in timed.items():
        assert doc["correct"], doc["misses"]
        assert doc["failed"] == 0 and doc["attempted"] > 0
        assert set(doc["metrics"]) == \
            {m.name for m in COMMON} | set(WORKLOAD_METRICS[w])
        for m in COMMON:        # the driver refuses a 0
            assert doc["metrics"][m.name]["value"] > 0, (w, m.name)
        prov = doc["provenance"]
        assert prov["engine_backend"] == "pure-python"
        assert prov["pythonhashseed"] == "0"
        assert len(prov["src_repro_digest"]) == 16
        assert w in report.format_doc(doc)


def test_sim_clock_repeats_bit_for_bit_and_follows_the_seed(timed):
    again = smoke("redis_set_gc", 1)
    other = smoke("redis_set_gc", 2)
    first = sim_values(timed["redis_set_gc"])
    assert sim_values(again) == first
    assert sim_values(other) != first
    rows = report.compare([timed["redis_set_gc"]], [again])
    assert {r["verdict"] for r in rows if r["clock"] == "sim"} == {"identical"}


def test_driver_entry_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmarks/slimbench/run.py", "--workload",
         "snap_recover", "--seed", "5", "--seconds", "4", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m.name for m in COMMON}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "slimbench",
                    tmp_path / "benchmarks" / "slimbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/slimbench/run.py", "--workload",
         "snap_recover", "--seed", "5", "--seconds", "4", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ------------------------------------------------------------ the traced run

@pytest.mark.parametrize("workload", ["redis_set_gc", "openloop_net"])
def test_traced_run_fills_the_ledger_and_leaves_events_alone(workload, tmp_path):
    doc = smoke(workload, 1, traced=True, out_dir=str(tmp_path))
    # 'correct' covers: logical event total unchanged by tracing, every
    # kept trace well-formed, every name known to metrics.py
    assert doc["correct"], doc["misses"]
    assert list(doc["metrics"]) == [n for n, _, _ in PER_LAYER]
    m = {n: v["value"] for n, v in doc["metrics"].items()}
    assert m["obs.trace_overhead_x"] > 0 and m["sim.host_self_s"] > 0
    assert (m["net.host_self_s"] > 0) == (workload == "openloop_net")
    for info in doc["span_files"].values():
        with open(info["path"], encoding="utf-8") as fh:
            _meta, contexts, _bg, _ov = load_trace_jsonl(fh)
        assert contexts
        assert not [p for ctx in contexts for p in validate_trace(ctx)]


# ------------------------------------------------------------ compare

def test_verdicts():
    v = report.verdict
    assert v("host_cpu_s", [1.0] * 3, [1.2] * 3)["verdict"] == "WORSE"
    assert v("host_cpu_s", [1.0] * 3, [1.05] * 3)["verdict"] == "no-regression"
    # parent's own spread wider than the bound, sides interleave
    assert v("host_cpu_s", [0.8, 1.0, 1.3, 1.1], [0.9, 1.0, 1.2, 1.15]
             )["verdict"] == "unresolved"
    assert v("host_cpu_s", [1.0, 1.01] * 5, [0.8, 0.81] * 5)["verdict"] == "better"
    assert v("slimio_waf", [1.0], [1.0])["verdict"] == "identical"
    assert v("slimio_waf", [1.0], [1.02])["verdict"] == "WORSE"
    assert v("slo_max_rate", [60000.0], [30000.0])["verdict"] == "WORSE"
    row = v("slimio_recovery_mbps", [400.0], [401.0])
    assert row["verdict"] == "better" and row["ratio"] == pytest.approx(1.0025)
