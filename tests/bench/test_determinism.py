"""The determinism contract (see docs/PERFORMANCE.md).

Every experiment report is a pure function of the tree and the scale:
byte-identical to the committed digest, run to run, and serial or
parallel. The committed digests (``golden_digests.json``) were proven
equal to all eight corners of the old ``batched`` x ``fast_sim`` x
``fast_forward`` cube before that cube was deleted (CHANGES.md, PR 15),
so one run per experiment stands in for what used to be a run-time
matrix. An engine or model change that reorders anything shows up here
as a digest mismatch naming the experiment.

The suite runs at a shrunken scale so the full experiment set stays
affordable in CI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scales import TEST_SCALE

#: TEST_SCALE shrunk ~4x: big enough that WAL triggers fire and GC
#: runs (the interesting orderings), small enough for a full matrix
TINY = replace(
    TEST_SCALE,
    redis_ops=4_000,
    redis_keys=200,
    ycsb_ops=2_500,
    ycsb_keys=400,
    warmup_ops=500,
    wal_trigger_bytes=2 * 1024 * 1024,
    gc_heavy_trigger_bytes=2 * 1024 * 1024,
)

#: sha256 of every experiment's TINY report, pinned at the commit
#: before the telemetry paths were merged: the committed oracle that a
#: refactor changes no report
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


def _digest(name: str) -> str:
    report = EXPERIMENTS[name](TINY).format()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_batched_fast_path_is_result_invariant(name):
    """The one engine path — closed-form NAND bursts, inline resume,
    fast-forward — reports what the per-page, schedule-everything
    realization reported: the digest that realization was proven to
    produce."""
    assert _digest(name) == GOLDEN[name], (
        f"{name}: report diverged from tests/bench/golden_digests.json"
    )


def test_run_to_run_identical():
    """Same config twice in one process: no hidden global state."""
    assert _digest("table3") == _digest("table3")


def test_jobs_serial_vs_parallel_identical(tmp_path):
    """--jobs 1 and --jobs 4 write byte-identical report files."""
    from repro.bench.__main__ import main

    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    args = ["table1", "table2", "--scale", "test",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    # --refresh so the parallel pass recomputes in worker processes
    # instead of replaying the serial pass's cache entries
    assert main(args + ["--out", str(parallel), "--jobs", "4",
                        "--refresh"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
