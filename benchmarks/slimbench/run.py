"""The ``BENCHMARK.json`` command: one workload, one result line.

    python3 benchmarks/slimbench/run.py --workload redis_set_gc \\
        --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics ``BENCHMARK.json`` lists,
``--trace 1`` the per-layer ones. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed``,
``metrics``. Exits non-zero when a workload cannot run (no ``src/``)
or an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.slimbench import launch, report  # noqa: E402
from benchmarks.slimbench.metrics import COMMON  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks/slimbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        doc = launch.run_worker(
            args.workload, args.seed, seconds=args.seconds,
            traced=bool(args.trace), micro_repeats=3, timeout=170.0)
    except launch.WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    print(report.format_doc(doc))
    wanted = [m.name for m in COMMON] if not args.trace else list(doc["metrics"])
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": doc["metrics"][n]["value"],
                        "unit": doc["metrics"][n]["unit"]} for n in wanted},
    }))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
