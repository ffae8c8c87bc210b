"""SLIM011 — seed-provenance taint through the call graph.

Extraction already evaluated each RNG construction site's seed
expression to one of four verdicts. ``ok`` and ``bad`` are final;
``params`` means "deterministic *if* these parameters are" and is
resolved here by walking every call site that can reach the function,
evaluating the argument each caller passes in that position (or the
parameter's default), and recursing when a caller in turn forwards its
own parameter. Memoized; cycles and never-called functions degrade to
``unknown`` — if the analyzer cannot see where the seed comes from,
neither can a reader, and the site is flagged.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import FunctionFacts, combine
from repro.analysis.flow.rules import FlowFinding, is_seedish

__all__ = ["check_taint"]

_UNKNOWN = {"v": "unknown", "why": "cannot trace to the seed root"}


class _Resolver:
    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.memo: dict[tuple[str, str], dict] = {}
        self.active: set[tuple[str, str]] = set()
        # pre-index call sites by callee name so resolution is not
        # quadratic in project size
        self.sites: dict[str, list[tuple[FunctionFacts, dict]]] = {}
        for f in graph.functions:
            for c in f.calls:
                self.sites.setdefault(c["name"], []).append((f, c))

    def param(self, f: FunctionFacts, name: str) -> dict:
        """Provenance of parameter ``name`` of ``f`` over all callers."""
        if is_seedish(name):
            return {"v": "ok"}
        key = (f.ref, name)
        if key in self.memo:
            return self.memo[key]
        if key in self.active:
            return {"v": "unknown", "why": f"recursive flow into '{name}'"}
        self.active.add(key)
        try:
            verdict = self._param_uncached(f, name)
        finally:
            self.active.discard(key)
        self.memo[key] = verdict
        return verdict

    def _param_uncached(self, f: FunctionFacts, name: str) -> dict:
        try:
            idx = f.params.index(name)
        except ValueError:
            return _UNKNOWN
        incoming: list[dict] = []
        for caller, site in self.sites.get(f.name, ()):  # name-based, like edges
            if f not in self.graph.resolve(site["name"], cls=caller.cls,
                                           recv=site.get("recv", "")):
                continue  # the self.-call narrowing chose someone else
            args = site.get("args")
            if args is None:
                return _UNKNOWN  # starred args: positions unknowable
            if idx < len(args):
                prov = args[idx]
            elif name in site.get("kwargs", {}):
                prov = site["kwargs"][name]
            elif name in f.param_defaults:
                prov = f.param_defaults[name]
            else:
                prov = _UNKNOWN
            incoming.append(self.resolve(caller, prov))
        if not incoming:
            if name in f.param_defaults:
                return self.resolve(f, f.param_defaults[name])
            return {"v": "unknown",
                    "why": f"no caller found to supply '{name}'"}
        return combine(*incoming)

    def resolve(self, f: FunctionFacts, prov: dict) -> dict:
        """Collapse a ``params`` verdict in ``f``'s frame to a final one."""
        if prov["v"] != "params":
            return prov
        return combine(*(self.param(f, p) for p in prov["params"]))


def check_taint(graph: CallGraph) -> list[FlowFinding]:
    res = _Resolver(graph)
    findings: list[FlowFinding] = []
    for f in graph.functions:
        for site in f.rngs:
            verdict = res.resolve(f, site["prov"])
            if verdict["v"] == "ok":
                continue
            why = verdict.get("why", "cannot trace to the seed root")
            msg = (
                f"RNG seed for {site['ctor']}(...) in {f.qualname} does "
                f"not trace back to the run's seed root: {why} — derive "
                f"it from a seed-named parameter/attribute or a constant"
            )
            findings.append(FlowFinding(
                code="SLIM011", message=msg, file=f.file,
                line=site["line"], col=site["col"],
            ))
    return findings
