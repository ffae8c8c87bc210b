"""slimflow's whole-program phase: call graph, then SLIM010-012.

:func:`flow_findings` joins the facts :func:`~repro.analysis.flow
.project.extract_module` drew from every ``src`` module. The slimcheck
driver (:mod:`repro.analysis.linter`) calls it once all files are
parsed and passes its findings through the files' pragmas.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.project import FunctionFacts
from repro.analysis.flow.protocol import check_protocol
from repro.analysis.flow.races import check_races
from repro.analysis.flow.rules import FlowFinding
from repro.analysis.flow.taint import check_taint

__all__ = ["flow_findings"]

_CHECKS = {
    "SLIM010": check_races,
    "SLIM011": check_taint,
    "SLIM012": check_protocol,
}


def flow_findings(functions: list[FunctionFacts],
                  select: set[str] | None = None) -> list[FlowFinding]:
    """The selected whole-program rules' findings, before pragmas."""
    graph = build_callgraph(functions)
    return [f for code, check in _CHECKS.items()
            if select is None or code in select
            for f in check(graph)]
