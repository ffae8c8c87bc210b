"""SLIM010 — yield-interleaving race detection.

The per-function CFG pass (:func:`repro.analysis.flow.cfg
.find_race_candidates`) already found every read-…-yield-…-write
sequence on a ``self`` attribute with no common lexical lock and no
re-read between the yield and the write. This module applies the three
*whole-program* filters that separate a race from a single-threaded
update:

1. the attribute must belong to a **shared class** — one whose methods
   the call graph reaches from at least two simulator process roots
   (one process cannot race with itself);
2. the function must not be **always called under a lock** — the
   interprocedural fixpoint that recognises the ``WalPath.flush`` →
   ``_flush_locked`` idiom where the caller holds the lock;
3. the yield must actually **block**: a bare ``yield`` always parks
   the process, a ``yield from f(...)`` only if ``f`` transitively
   reaches a bare yield.

What survives is reported with the full read→yield→write trace so the
finding reads like the interleaving it predicts.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.rules import FlowFinding

__all__ = ["check_races"]


def check_races(graph: CallGraph) -> list[FlowFinding]:
    findings: list[FlowFinding] = []
    for f in graph.functions:
        if not f.races or not f.cls:
            continue
        if not graph.is_shared(f):
            continue  # only one process ever runs this class's methods
        if f.ref in graph.always_under_lock:
            continue  # every caller holds a lock across the call
        for c in f.races:
            if not graph.is_blocking_yield(f, list(c["yield_callees"])):
                continue  # the yield never actually preempts
            attr = c["attr"]
            msg = (
                f"possible yield-interleaving race on `self.{attr}` in "
                f"{f.qualname}: the value read at line {c['read_line']} "
                f"may be stale by the write at line {c['write_line']} — "
                f"the yield at line {c['yield_line']} lets a rival "
                f"process update `{attr}` in between; hold a lock across "
                f"the read-modify-write or re-read after the yield"
            )
            findings.append(FlowFinding(
                code="SLIM010", message=msg, file=f.file,
                line=c["write_line"], col=c["write_col"],
                trace=(
                    (f"read of self.{attr}", c["read_line"]),
                    ("preemption point (yield)", c["yield_line"]),
                    (f"write of self.{attr}", c["write_line"]),
                ),
            ))
    return findings
