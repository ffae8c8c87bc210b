"""Whole-program call graph over extracted facts.

Resolution is *name-based* (duck typing is the repo's idiom: the
cluster router quacks like a server), refined by one heuristic — a
``self.f(...)`` call prefers a same-class method when one exists. That
over-approximates edges, which errs in the safe direction for every
client: race detection sees *more* sharing, the lock fixpoint proves
*less* protection only when an edge is genuinely ambiguous, and taint
resolution unions over all plausible callers.

Three whole-program facts are computed here:

* **roots** — the simulator process entry points (``env.process(f())``
  spawn targets), the threads of the static race model;
* **shared classes** — classes whose methods are reachable from two or
  more distinct roots; only their attribute state can interleave;
* **always_called_under_lock** — the greatest fixpoint of "every call
  edge into *f* either holds a lexical lock at the call site or comes
  from a function that itself is always called under a lock". This is
  what keeps the historical ``WalPath`` pattern quiet: the racy body
  lives in ``_flush_locked``, but its only caller (``flush``) invokes
  it inside ``_flush_lock`` — and what makes the check fire the moment
  that lock is stripped;
* **blocking** — does calling a generator transitively reach a bare
  ``yield`` (a real preemption)? ``yield from`` chains preempt only if
  their leaf does; unresolved callees are assumed blocking (again the
  conservative direction for race detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.flow.project import FunctionFacts

__all__ = ["CallGraph", "build_callgraph"]


@dataclass
class CallGraph:
    functions: list[FunctionFacts]
    by_name: dict[str, list[FunctionFacts]] = field(default_factory=dict)
    by_ref: dict[str, FunctionFacts] = field(default_factory=dict)
    #: ref -> refs it may call (calls + yield-from + spawns)
    edges: dict[str, list[str]] = field(default_factory=dict)
    #: root function refs (spawned as simulator processes)
    roots: list[str] = field(default_factory=list)
    #: ref -> set of root refs it is reachable from
    reached_by: dict[str, set[str]] = field(default_factory=dict)
    #: class keys ("module.Class") reachable from >= 2 roots
    shared_classes: set[str] = field(default_factory=set)
    always_under_lock: set[str] = field(default_factory=set)
    blocking: set[str] = field(default_factory=set)

    # ------------------------------------------------------------ queries
    def resolve(self, name: str, *, cls: str = "",
                recv: str = "") -> list[FunctionFacts]:
        """All functions a call to ``name`` may reach; ``self.name(...)``
        narrows to the caller's class when that class defines it."""
        cands = self.by_name.get(name, [])
        if recv == "self" and cls:
            own = [f for f in cands if f.cls == cls]
            if own:
                return own
        return cands

    def class_key(self, f: FunctionFacts) -> str:
        return f"{f.module}.{f.cls}" if f.cls else ""

    def is_shared(self, f: FunctionFacts) -> bool:
        return self.class_key(f) in self.shared_classes

    def is_blocking_yield(self, f: FunctionFacts,
                          callees: list[str]) -> bool:
        """Does a ``yield``/``yield from`` at this point preempt? Bare
        yields (empty callee list) always do."""
        if not callees:
            return True
        for name in callees:
            targets = self.resolve(name, cls=f.cls, recv="self")
            if not targets:
                return True  # unresolved: assume it parks the process
            if any(t.ref in self.blocking for t in targets):
                return True
        return False


def build_callgraph(functions: list[FunctionFacts]) -> CallGraph:
    g = CallGraph(functions=functions)
    for f in g.functions:
        g.by_name.setdefault(f.name, []).append(f)
        g.by_ref[f.ref] = f

    # ---- edges (call sites + yield-from callees + spawn targets)
    for f in g.functions:
        out: list[str] = []
        names = [(c["name"], c.get("recv", "")) for c in f.calls]
        names.extend((n, "self") for n in f.yield_callees)
        names.extend((s["name"], "self" if s["cls"] else "")
                     for s in f.spawns)
        seen: set[str] = set()
        for name, recv in names:
            for t in g.resolve(name, cls=f.cls, recv=recv):
                if t.ref not in seen:
                    seen.add(t.ref)
                    out.append(t.ref)
        g.edges[f.ref] = out

    # ---- roots: every distinct spawn-target function
    root_set: set[str] = set()
    for f in g.functions:
        for s in f.spawns:
            for t in g.resolve(s["name"], cls=s["cls"] or f.cls,
                               recv="self" if s["cls"] else ""):
                root_set.add(t.ref)
    g.roots = sorted(root_set)

    # ---- per-root reachability and shared classes
    for root in g.roots:
        stack = [root]
        seen = {root}
        while stack:
            ref = stack.pop()
            g.reached_by.setdefault(ref, set()).add(root)
            for nxt in g.edges.get(ref, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    counts: dict[str, set[str]] = {}
    for ref, roots in g.reached_by.items():
        f = g.by_ref[ref]
        key = g.class_key(f)
        if key:
            counts.setdefault(key, set()).update(roots)
    g.shared_classes = {key for key, roots in counts.items()
                        if len(roots) >= 2}

    # ---- always-called-under-lock: greatest fixpoint, demote-only
    incoming: dict[str, list[tuple[str, bool]]] = {f.ref: [] for f in g.functions}
    for f in g.functions:
        # a ``yield from self.f(...)`` delegation shows up in f.calls
        # too (the callee expression is a call site), so call edges
        # already cover it
        for c in f.calls:
            for t in g.resolve(c["name"], cls=f.cls, recv=c.get("recv", "")):
                incoming[t.ref].append((f.ref, bool(c.get("locked"))))
    under = {ref for ref, edges in incoming.items() if edges}
    under -= root_set  # a spawned process starts with no lock held
    changed = True
    while changed:
        changed = False
        for ref in list(under):
            ok = all(locked or caller in under
                     for caller, locked in incoming[ref])
            if not ok:
                under.discard(ref)
                changed = True
    g.always_under_lock = under

    # ---- blocking: least fixpoint, promote-only
    blocking = {f.ref for f in g.functions if f.has_bare_yield}
    changed = True
    while changed:
        changed = False
        for f in g.functions:
            if f.ref in blocking or not f.yield_callees:
                continue
            for name in f.yield_callees:
                targets = g.resolve(name, cls=f.cls, recv="self")
                if not targets or any(t.ref in blocking for t in targets):
                    blocking.add(f.ref)
                    changed = True
                    break
    g.blocking = blocking
    return g
