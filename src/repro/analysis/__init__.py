"""repro.analysis — slimcheck: static analysis + runtime I/O sanitizers.

Two halves, one purpose: the invariants that make WAF = 1.00 possible
are invisible to the type system, so we check them twice —

* **static rules**, one pass (``python -m repro.analysis``,
  :func:`lint_paths`, driver :mod:`repro.analysis.linter`): each file
  is parsed once and feeds
  - **slimlint** (:mod:`repro.analysis.rules`), per-module rules
    SLIM001-009 covering device-access discipline, PID hygiene,
    determinism, layering, metric naming, FTL encapsulation, FDP write
    tagging, LBA state-machine ownership and net purity;
  - **slimflow** (:mod:`repro.analysis.flow`), the whole-program rules
    over a call graph + per-function CFGs: yield-interleaving races
    (SLIM010), RNG seed provenance (SLIM011), and the imdb/net
    durability ack protocol (SLIM012).
* **runtime sanitizers** (:mod:`repro.analysis.sanitize`,
  :mod:`repro.analysis.forkcheck`): opt-in wrappers (engine flag
  ``sanitize=True``, bench ``--sanitize``) that validate every write
  at execution time against the region/PID its origin declared, plus
  a fork-snapshot race detector.
"""

from repro.analysis.flow import FLOW_CODES, FLOW_RULES, FlowFinding
from repro.analysis.linter import (
    ALL_RULES,
    LintResult,
    analyze_sources,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import LAYER_RANKS, RULES, Finding
from repro.analysis.sanitize import (
    SanitizerError,
    SlimIOSanitizer,
)
from repro.analysis.forkcheck import ForkRaceDetector

__all__ = [
    "ALL_RULES",
    "FLOW_CODES",
    "FLOW_RULES",
    "Finding",
    "FlowFinding",
    "ForkRaceDetector",
    "LAYER_RANKS",
    "LintResult",
    "RULES",
    "SanitizerError",
    "SlimIOSanitizer",
    "analyze_sources",
    "lint_paths",
    "lint_source",
]
