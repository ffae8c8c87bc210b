"""The determinism contract (see docs/PERFORMANCE.md).

Every experiment report is a pure function of the tree and the scale:
equal to its committed golden text, run to run, and serial or
parallel. The goldens (``golden/<experiment>.txt``, the TINY report
exactly as ``ExperimentResult.format()`` renders it) carry the sha256
digests that were proven equal to all eight corners of the old
``batched`` x ``fast_sim`` x ``fast_forward`` cube before that cube was
deleted (CHANGES.md, PR 15), so one run per experiment stands in for
what used to be a run-time matrix. An engine or model change that
reorders anything fails here with a unified diff naming the experiment
and the lines that moved.

The goldens also freeze which shape checks miss at TINY: every
``[MISS]`` line in them must be on :data:`ALLOWED_MISSES` with its
reason, and every listed one must still be there, so a new miss fails
and a fixed one must leave the list in the same change.

Regenerate the goldens after a change that is meant to move a report
(and put the text diff in its description)::

    PYTHONPATH=src python -m tests.bench.test_determinism

The suite runs at a shrunken scale so the full experiment set stays
affordable in CI.
"""

from __future__ import annotations

import difflib
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

GOLDEN_DIR = Path(__file__).parent / "golden"

_OUTSIDE_GC_REGIME = ("TINY is outside the GC regime (ROADMAP item 3); "
                      "all 80 checks pass at test scale")

#: (experiment, text of the [MISS] line) -> why it misses at TINY
ALLOWED_MISSES = {
    ("table3", "periodical: baseline WAF > 1.00"): _OUTSIDE_GC_REGIME,
    ("cluster", "slimio 4-shard (collapse): shared PIDs measurably "
                "degrade WAF (> 1.0) but stay bounded (< 2.0)"):
        _OUTSIDE_GC_REGIME,
    ("cluster", "slimio 8-shard (share-wal): shared PIDs measurably "
                "degrade WAF (> 1.0) but stay bounded (< 2.0)"):
        _OUTSIDE_GC_REGIME,
    ("tailtrace", "shared PIDs: >=1 slow op causally blamed on a "
                  "neighbor tenant's GC"): _OUTSIDE_GC_REGIME,
}


def _report(name: str) -> str:
    return EXPERIMENTS[name](TINY).format()


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_batched_fast_path_is_result_invariant(name):
    """The one engine path — closed-form NAND bursts, inline resume,
    fast-forward — reports what the per-page, schedule-everything
    realization reported: the text that realization was proven to
    produce."""
    golden, report = _golden(name), _report(name)
    if report != golden:
        diff = "".join(difflib.unified_diff(
            golden.splitlines(keepends=True),
            report.splitlines(keepends=True),
            fromfile=f"tests/bench/golden/{name}.txt",
            tofile=f"{name} @ TINY"))
        pytest.fail(f"{name}: report diverged from its golden\n{diff}",
                    pytrace=False)


def test_golden_misses_are_allowed_and_current():
    """The MISS ratchet: no unlisted miss, no stale allow-list line."""
    found = {
        (name, line.split("[MISS]", 1)[1].strip())
        for name in EXPERIMENTS
        for line in _golden(name).splitlines()
        if "[MISS]" in line
    }
    assert sorted(found - ALLOWED_MISSES.keys()) == [], (
        "new [MISS] lines in the goldens: fix them, or list each in "
        "ALLOWED_MISSES with its reason")
    assert sorted(ALLOWED_MISSES.keys() - found) == [], (
        "ALLOWED_MISSES lists misses the goldens no longer show: "
        "delete those lines")


def test_run_to_run_identical():
    """Same config twice in one process: no hidden global state."""
    assert _report("table3") == _report("table3")


def test_jobs_serial_vs_parallel_identical(tmp_path):
    """--jobs 1 and --jobs 4 write byte-identical report files."""
    from repro.bench.__main__ import main

    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    args = ["table1", "table2", "--scale", "test"]
    assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "4"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for experiment in EXPERIMENTS:
        (GOLDEN_DIR / f"{experiment}.txt").write_bytes(
            _report(experiment).encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / experiment}.txt")
