"""The fast-lane determinism contract (see docs/PERFORMANCE.md).

The simulator's optimized paths — engine inline resume, batched NAND
bursts, memoized model code — must be *result-invariant*: every
experiment report is byte-identical whether the fast lanes are on or
off, run to run, and serial or parallel. These tests are the contract;
an engine change that breaks ordering shows up here as a digest
mismatch naming the experiment.

The matrix runs at a shrunken scale so the full experiment set stays
affordable in CI; the fast/slow pairing is what matters, not the
absolute op counts.
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

#: sha256 of every experiment's TINY report with all lanes on, pinned
#: once at the commit before the telemetry paths were merged: the
#: committed oracle that a refactor changes no report
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


def _digest(name: str, *, batched: bool, fast_sim: bool,
            fast_forward: bool = True) -> str:
    scale = replace(TINY, batched=batched, fast_sim=fast_sim,
                    fast_forward=fast_forward)
    report = EXPERIMENTS[name](scale).format()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_batched_fast_path_is_result_invariant(name):
    """All fast lanes on vs fully off: byte-identical reports, and
    identical to the committed golden digest."""
    fast = _digest(name, batched=True, fast_sim=True, fast_forward=True)
    slow = _digest(name, batched=False, fast_sim=False,
                   fast_forward=False)
    assert fast == slow, (
        f"{name}: optimized report diverged from the reference path"
    )
    assert fast == GOLDEN[name], (
        f"{name}: report diverged from tests/bench/golden_digests.json"
    )


@pytest.mark.parametrize("name", ["table1", "figure4"])
def test_each_lane_is_independently_invariant(name):
    """The three knobs are independent; each alone must be inert too."""
    fast = _digest(name, batched=True, fast_sim=True)
    assert _digest(name, batched=False, fast_sim=True) == fast
    assert _digest(name, batched=True, fast_sim=False) == fast
    assert _digest(name, batched=True, fast_sim=True,
                   fast_forward=False) == fast


@pytest.mark.parametrize("name", ["table1", "table3"])
def test_fast_forward_cube(name):
    """Fast-forward is inert across the whole batched×fast_sim cube —
    closed-form absorption may never depend on the other lanes for its
    equivalence argument (their per-tick event counts differ)."""
    ref = _digest(name, batched=True, fast_sim=True, fast_forward=True)
    for batched in (True, False):
        for fast_sim in (True, False):
            for ff in (True, False):
                assert _digest(name, batched=batched, fast_sim=fast_sim,
                               fast_forward=ff) == ref, (
                    f"{name}: diverged at batched={batched} "
                    f"fast_sim={fast_sim} fast_forward={ff}"
                )


def test_fast_forward_preserves_logical_event_count():
    """``events_processed + events_absorbed`` is lane-invariant, so
    the perf report's sim_events metric means the same thing whichever
    lane produced it."""
    import repro.sim.engine as se

    totals = {}
    for ff in (True, False):
        se.track_environments(True)
        try:
            EXPERIMENTS["table1"](replace(TINY, fast_forward=ff))
            totals[ff] = se.tracked_event_total()
        finally:
            se.track_environments(False)
    assert totals[True] == totals[False]


def test_run_to_run_identical():
    """Same config twice in one process: no hidden global state."""
    assert _digest("table3", batched=True, fast_sim=True) == \
        _digest("table3", batched=True, fast_sim=True)


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
