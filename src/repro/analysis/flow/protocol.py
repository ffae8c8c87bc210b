"""SLIM012 — durability-protocol checking on the ack path.

The contract the crash matrix (PR 5) polices dynamically: a reply the
client can observe must not promise more durability than the WAL has
delivered. Statically: every write-ack emission site in ``repro.imdb``
/ ``repro.net`` (an ``encode("OK")`` RESP ack, or the value-return of a
WAL-staging ``execute`` generator) must be

* CFG-dominated by a direct durability await (``ensure_durable`` /
  ``flush_now``), or
* CFG-dominated by a call into a function that itself *handles the
  durability decision* (transitively awaits a gate, or is explicitly
  tagged) — the dispatcher that acks after ``yield from
  backend.execute(op)`` is fine because the backend decides, or
* explicitly tagged ``# slimflow: relaxed-durability`` on the ack line
  or the enclosing ``def`` — the documented escape hatch for
  Periodical-Log's everysec window, where losing the last second of
  acked writes is the configured contract, not a bug.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import FunctionFacts
from repro.analysis.flow.rules import FlowFinding

__all__ = ["check_protocol"]

#: packages whose ack paths are in scope for SLIM012
_SCOPE = frozenset({"imdb", "net"})

_KIND_LABEL = {
    "resp-ok": 'write ack encode("OK")',
    "execute-return": "write-command result return",
}


class _Durability:
    """Memoized "does calling this function settle the durability
    decision?" — true only when it awaits a gate in its *own* body, is
    tagged relaxed on its ``def``, or is itself an ack emitter whose
    every ack site checks out (the backend-delegation idiom: the
    dispatcher that acks after ``yield from backend.execute(op)`` is
    covered because the backend's own ack discipline is). Deliberately
    **not** a blanket transitive closure over all call edges — a
    conditional snapshot trigger three calls away must not absolve a
    write ack. Cycles resolve to False."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.memo: dict[str, bool] = {}
        self.active: set[str] = set()

    def handles(self, f: FunctionFacts) -> bool:
        if f.ref in self.memo:
            return self.memo[f.ref]
        if f.ref in self.active:
            return False
        if f.calls_gates or f.relaxed_def:
            self.memo[f.ref] = True
            return True
        if not f.acks:
            self.memo[f.ref] = False
            return False
        self.active.add(f.ref)
        try:
            out = all(self.ack_ok(f, ack) for ack in f.acks)
        finally:
            self.active.discard(f.ref)
        self.memo[f.ref] = out
        return out

    def ack_ok(self, f: FunctionFacts, ack: dict) -> bool:
        if ack["gated"] or ack["relaxed"]:
            return True
        return any(
            self.handles(t)
            for name in ack["dom_calls"]
            for t in self.graph.resolve(name, cls=f.cls, recv="self")
        )


def check_protocol(graph: CallGraph) -> list[FlowFinding]:
    dur = _Durability(graph)
    findings: list[FlowFinding] = []
    for f in graph.functions:
        if f.package not in _SCOPE or not f.acks:
            continue
        for ack in f.acks:
            if dur.ack_ok(f, ack):
                continue
            label = _KIND_LABEL.get(ack["kind"], ack["kind"])
            msg = (
                f"{label} in {f.qualname} is not dominated by a WAL "
                f"durability await (ensure_durable/flush_now) or a call "
                f"that handles the durability decision; await the flush "
                f"before acking, or tag the relaxed contract with "
                f"`# slimflow: relaxed-durability — <reason>`"
            )
            findings.append(FlowFinding(
                code="SLIM012", message=msg, file=f.file,
                line=ack["line"], col=ack["col"],
            ))
    return findings
