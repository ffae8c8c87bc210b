"""slimflow rule catalogue: the whole-program rules SLIM010-012.

slimlint's SLIM001-009 are each decidable from one module's AST; the
three rules here are not — they need the project call graph and a
per-function control-flow graph:

* **SLIM010** — *yield-interleaving race*: a read-…-yield-…-write
  sequence on shared ``self`` attribute state (state of an object whose
  methods are reachable from more than one simulator process) without a
  dominating lock hold. Every ``yield`` in the cooperative simulator is
  a preemption point, so a value read before a yield and written back
  after it can clobber a rival process's interleaved update — the
  static form of the ``WalPath`` concurrent-flush race PR 3's runtime
  sanitizer caught dynamically.
* **SLIM011** — *seed provenance*: the seed argument of every
  ``random.Random(...)`` / ``np.random.default_rng(...)`` must trace
  back — through locals, attributes, and the call graph — to the run's
  seed root (a literal constant, or a parameter/attribute whose name
  contains ``seed``). Wall-derived or address-derived entropy
  (``hash()``, ``id()``, ``time.*``, ``os.urandom``, ``uuid``) breaks
  run-to-run reproducibility in ways SLIM003's single-call check cannot
  see across functions.
* **SLIM012** — *durability protocol*: in ``repro.imdb`` and
  ``repro.net``, every ack/reply emission site for a write command
  (an ``encode("OK")`` RESP ack, or the return of a WAL-staging
  ``execute``) must be dominated on the CFG by a WAL durability await
  (``ensure_durable`` / ``flush_now``), by a call into a function that
  itself handles the durability decision, or must carry an explicit
  ``# slimflow: relaxed-durability`` tag documenting the relaxed
  contract (Periodical-Log's everysec window).

The rule *descriptors* live here so the driver and the SARIF renderer
can list them without importing the analysis machinery; the checkers
themselves live in :mod:`races`, :mod:`taint`, and :mod:`protocol`.
Findings honour the same rule-scoped suppression pragmas as the
per-file rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.analysis.rules import Finding, Rule

__all__ = [
    "FLOW_RULES",
    "FLOW_CODES",
    "FlowFinding",
    "RELAXED_TAG",
    "is_lockish",
    "is_seedish",
]


@dataclass(frozen=True)
class FlowFinding(Finding):
    """A whole-program finding; races carry the read→yield→write
    *trace*, rendered under the finding and exported as SARIF
    relatedLocations."""

    trace: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        base = super().render()
        if not self.trace:
            return base
        steps = "\n".join(f"      {label} at {self.file}:{line}"
                          for label, line in self.trace)
        return f"{base}\n{steps}"


FLOW_RULES: tuple[Rule, ...] = (
    Rule("SLIM010", "yield-race",
         "no unlocked read-yield-write on shared attribute state", None),
    Rule("SLIM011", "seed-provenance",
         "every RNG seed must trace back to the run's seed root", None),
    Rule("SLIM012", "durability-protocol",
         "write acks must be dominated by a WAL durability await", None),
)

FLOW_CODES = {rule.code for rule in FLOW_RULES}

#: explicit relaxed-durability intent tag recognised by SLIM012 — put it
#: on the ack line (or the enclosing ``def``) with a reason:
#:   return result  # slimflow: relaxed-durability — everysec window
RELAXED_TAG = re.compile(r"#\s*slimflow:\s*relaxed-durability\b")

_LOCKISH = re.compile(r"(?:^|_)(?:lock|mutex|guard)s?$|_lock\b|lock$")


def is_lockish(name: str | None) -> bool:
    """Does an identifier name a lock? (``_sink_lock``, ``flush_lock``,
    ``lock``, ``mutex`` — the repo's locks are capacity-1 Resources and
    follow this convention; slimflow's lock-region detection is
    name-based, like most lock-order linters.)"""
    if not name:
        return False
    return bool(_LOCKISH.search(name.lower().lstrip("_")))


def is_seedish(name: str | None) -> bool:
    """Does an identifier carry seed material? (``seed``, ``base_seed``,
    ``seed0``…) Seed-named parameters and attributes are the trust
    anchor: they *are* the run's seed root at the analysis boundary."""
    return bool(name) and "seed" in name.lower()
