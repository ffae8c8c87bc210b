"""Little's law on every single-system closed-loop cell of the paper's
experiments (the operational laws hold for any correct simulation,
whatever its calibration: Denning & Buzen, "The Operational Analysis
of Queueing Network Models", ACM Computing Surveys 10(3), 1978).

A closed loop with zero think time keeps its N clients busy, so the
number in the system is N, and over the measured window N = X·R: X is
the window's completions over its span (``ServerMetrics.span()``, first
to last completion) and R the mean latency of every SET and GET in it.
The window opens after the warmup with N requests already in flight
and closes while the last ones drain, so the law holds to within the
edge effects: 1 %.

The check wraps the experiments' one cell runner, so every closed-loop
cell is checked at the TINY golden scale without a second copy of any
experiment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import experiments
from repro.workloads import ClosedLoopWorkload
from tests.bench.test_determinism import TINY

#: experiment -> its single-system closed-loop cells (Table 2's
#: concurrent cell; Figure 2's two loaded scenarios per figure)
CELLS = {"table1": 2, "table2": 1, "table3": 4, "table4": 4,
         "figure2a": 2, "figure2b": 2, "figure4": 2, "figure5": 2}


@pytest.mark.parametrize("name", list(CELLS))
def test_clients_equal_throughput_times_response_time(name, monkeypatch):
    cell = experiments._cell
    seen = []

    def checked(builder, config, work, **kw):
        system, out = cell(builder, config, work, **kw)
        if isinstance(work, ClosedLoopWorkload):
            m = system.server.metrics
            lo, hi = m.span()
            x = len(m.op_times) / (hi - lo)
            r = float(np.concatenate([m.set_latency, m.get_latency]).mean())
            seen.append((work.clients, x * r))
        return system, out

    monkeypatch.setattr(experiments, "_cell", checked)
    experiments.EXPERIMENTS[name](TINY)
    assert len(seen) == CELLS[name]
    for n, xr in seen:
        assert xr == pytest.approx(n, rel=0.01), (name, n, xr)
