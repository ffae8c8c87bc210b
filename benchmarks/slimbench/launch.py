"""Start one workload in a fresh interpreter and collect its document.

One workload per subprocess, one at a time, single host thread: the
host-clock metrics of one workload must not see another's heap, caches
or imports. The environment is pinned before the interpreter starts
(``PYTHONHASHSEED`` cannot be set later).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

__all__ = ["ROOT", "WorkerFailed", "run_worker"]

#: the checkout: benchmarks/slimbench/launch.py -> ../../..
ROOT = Path(__file__).resolve().parents[2]


class WorkerFailed(RuntimeError):
    """The workload subprocess died or printed no result."""


def run_worker(workload: str, seed: int, *, seconds: float | None = None,
               replications: int | None = None, traced: bool = False,
               smoke: bool = False, micro_repeats: int = 5,
               out_dir: str | None = None, timeout: float = 900.0) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise WorkerFailed(f"no src/repro under {ROOT}: nothing to measure")
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "SLIMIO_NO_COMPILED": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]),
    })
    cmd = [sys.executable, "-m", "benchmarks.slimbench.worker",
           "--workload", workload, "--seed", str(seed),
           "--micro-repeats", str(micro_repeats)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if replications is not None:
        cmd += ["--replications", str(replications)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if out_dir is not None:
        cmd += ["--out-dir", out_dir]
    # run() waits for the child and, on timeout, kills and reaps it
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{workload}: worker exited {proc.returncode}\n"
            + proc.stderr[-4000:])
    return json.loads(lines[-1])
