"""The pure-Python engine is the only backend."""

import repro.sim.engine
from repro.sim.compiled import engine_backend


def test_backend_reports_loaded_engine():
    assert engine_backend() == "pure-python"
    assert repro.sim.engine.__file__.endswith("engine.py")
