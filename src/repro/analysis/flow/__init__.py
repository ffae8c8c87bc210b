"""repro.analysis.flow — slimflow: whole-program dataflow analysis.

slimlint (SLIM001-009) judges one module at a time; slimflow builds a
project-wide call graph plus per-function CFGs that model simulator
generators (every ``yield`` is a preemption point) and lock regions,
and checks the three invariants that only make sense whole-program:

* **SLIM010** yield-interleaving races on shared attribute state,
* **SLIM011** RNG seed provenance back to the run's seed root,
* **SLIM012** durability protocol on the imdb/net ack path.

Both run in one pass, ``python -m repro.analysis``
(:func:`repro.analysis.lint_paths`); :func:`repro.analysis
.analyze_sources` runs these three rules on an in-memory module set.
"""

from repro.analysis.flow.driver import flow_findings
from repro.analysis.flow.project import extract_module
from repro.analysis.flow.rules import FLOW_CODES, FLOW_RULES, FlowFinding

__all__ = [
    "FLOW_CODES",
    "FLOW_RULES",
    "FlowFinding",
    "extract_module",
    "flow_findings",
]
