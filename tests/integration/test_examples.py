"""Smoke tests: every example script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print something"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert names == {
        "analysis_tour.py", "cluster_tour.py", "faults_tour.py",
        "flowcheck_tour.py", "quickstart.py", "replica_bootstrap.py",
        "telemetry_tour.py"}
