"""Which simulation engine is loaded: the pure-Python
``repro.sim.engine`` is the only backend."""

from __future__ import annotations

__all__ = ["engine_backend"]


# read by benchmarks/slimbench/worker.py::provenance (benchmark contract)
def engine_backend() -> str:
    """``"pure-python"`` unless a stale ``engine.*.so`` shadows the source."""
    import repro.sim.engine as eng

    f = getattr(eng, "__file__", "") or ""
    return "compiled" if f.endswith((".so", ".pyd")) else "pure-python"
