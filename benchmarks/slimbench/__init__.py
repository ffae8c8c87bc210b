"""slimbench — the repository's benchmark.

Four workloads, two clocks (simulated and host), one per-layer ledger.
``PYTHONPATH=src python -m benchmarks.slimbench`` runs it; README.md in
this directory defines every metric and workload.
"""
