"""Per-function fact extraction for slimflow.

slimflow runs in two phases. Phase one (this module) takes each parsed
``src`` module and boils every function down to a small, plain-data
:class:`FunctionFacts` record: its call sites (with lexical lock state
and per-argument seed provenance), its simulator spawn sites, its
read-yield-write race candidates (from :mod:`cfg`), its RNG
construction sites, and its durability ack sites. Phase two (callgraph
+ the rule checkers) is pure fact-joining and never touches an AST.

Nothing here decides whether anything is a *finding*; candidates are
over-approximations that the whole-program phase filters (a race
candidate in a function only ever called under its caller's lock is
not a race; a ``params`` seed provenance is resolved through the call
graph).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.cfg import Ev, build_cfg, dominating_calls, find_race_candidates
from repro.analysis.flow.rules import RELAXED_TAG, is_seedish
from repro.analysis.rules import ModuleContext

__all__ = ["FunctionFacts", "extract_module"]

#: WAL durability awaits — the direct SLIM012 gates.
GATE_NAMES = frozenset({"ensure_durable", "flush_now"})

#: RNG constructors whose seed argument SLIM011 traces.
RNG_NAMES = frozenset({"Random", "default_rng", "RandomState"})

#: calls whose result is entropy that varies run-to-run — seed poison.
_BAD_CALLS = frozenset({
    "hash", "id", "object", "urandom", "getpid", "getrandbits",
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "now", "utcnow", "uuid1", "uuid4", "token_bytes",
    "token_hex",
})

#: pure, deterministic transforms — provenance flows through their args
#: (and, for methods, their receiver).
_PURE_CALLS = frozenset({
    "crc32", "adler32", "from_bytes", "int", "abs", "min", "max",
    "round", "len", "repr", "str", "bytes", "encode", "ord", "sorted",
    "tuple", "sum", "divmod", "pow", "format", "join", "zlib",
})

_RANK = {"ok": 0, "params": 1, "unknown": 2, "bad": 3}


def combine(*provs: dict) -> dict:
    """Join provenance verdicts: ``bad > unknown > params > ok``."""
    worst = {"v": "ok"}
    params: set[str] = set()
    for p in provs:
        if p["v"] == "params":
            params.update(p.get("params", ()))
        if _RANK[p["v"]] > _RANK[worst["v"]]:
            worst = p
    if worst["v"] in ("ok", "params") and params:
        return {"v": "params", "params": sorted(params)}
    return worst


@dataclass
class FunctionFacts:
    """Everything phase two needs to know about one function."""

    qualname: str  # e.g. "WalManager.ensure_durable"
    module: str  # dotted, e.g. "repro.persist.wal"
    package: str | None  # repro sub-package, e.g. "persist"
    file: str  # display path for findings
    line: int
    name: str
    cls: str = ""  # nearest enclosing class ("" for module functions)
    params: list[str] = field(default_factory=list)  # sans self
    param_defaults: dict[str, dict] = field(default_factory=dict)
    is_generator: bool = False
    has_bare_yield: bool = False
    yield_callees: list[str] = field(default_factory=list)
    calls_gates: bool = False  # body awaits ensure_durable/flush_now
    relaxed_def: bool = False  # relaxed-durability tag on the def line
    spawns: list[dict] = field(default_factory=list)
    calls: list[dict] = field(default_factory=list)
    races: list[dict] = field(default_factory=list)
    rngs: list[dict] = field(default_factory=list)
    acks: list[dict] = field(default_factory=list)

    @property
    def ref(self) -> str:
        return f"{self.module}.{self.qualname}"


# --------------------------------------------------------------------------
# seed provenance of one expression
# --------------------------------------------------------------------------

class _Provenance:
    """Evaluate where an expression's value ultimately comes from.

    Verdicts: ``ok`` (a literal, or a seed-named parameter/attribute —
    the trust anchor), ``bad`` (wall/address entropy), ``params``
    (depends on the listed non-seed parameters; the call graph resolves
    those from every caller), ``unknown`` (cannot trace).
    """

    def __init__(self, params: list[str], assigns: dict[str, list[ast.expr]]):
        self.params = set(params)
        self.assigns = assigns
        self._active: set[str] = set()  # recursion guard for locals

    def of(self, node: ast.expr | None) -> dict:
        if node is None:
            return {"v": "unknown", "why": "missing seed argument"}
        if isinstance(node, ast.Constant):
            return {"v": "ok"}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return combine(*(self.of(e) for e in node.elts)) \
                if node.elts else {"v": "ok"}
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Attribute):
            if is_seedish(node.attr):
                return {"v": "ok"}
            return {"v": "unknown",
                    "why": f"attribute .{node.attr} is not seed-derived"}
        if isinstance(node, ast.BinOp):
            return combine(self.of(node.left), self.of(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.of(node.operand)
        if isinstance(node, ast.BoolOp):
            return combine(*(self.of(v) for v in node.values))
        if isinstance(node, ast.IfExp):
            return combine(self.of(node.body), self.of(node.orelse))
        if isinstance(node, ast.Compare):
            return {"v": "ok"}  # booleans carry no entropy worth tracing
        if isinstance(node, ast.Subscript):
            return self.of(node.value)
        if isinstance(node, ast.Starred):
            return self.of(node.value)
        if isinstance(node, ast.JoinedStr):
            return combine(*(self.of(v.value) for v in node.values
                             if isinstance(v, ast.FormattedValue))) \
                if node.values else {"v": "ok"}
        if isinstance(node, ast.Call):
            return self._call(node)
        return {"v": "unknown", "why": f"opaque {type(node).__name__}"}

    def _name(self, ident: str) -> dict:
        if ident in self._active:
            # a self-reference reads an earlier value: for a parameter
            # that includes the one it came in with
            if ident in self.params:
                return self._incoming(ident)
            return {"v": "unknown", "why": f"cyclic local '{ident}'"}
        if ident in self.assigns:
            # a local is what is assigned to it, whatever its name; a
            # re-bound parameter also keeps its incoming value
            self._active.add(ident)
            try:
                parts = [self.of(v) for v in self.assigns[ident]]
            finally:
                self._active.discard(ident)
            if ident in self.params:
                parts.append(self._incoming(ident))
            return combine(*parts)
        if ident in self.params:
            return self._incoming(ident)
        if is_seedish(ident):
            return {"v": "ok"}  # a seed-named closure or global
        if ident.isupper():
            return {"v": "ok"}  # module constant by convention
        return {"v": "unknown", "why": f"untraceable name '{ident}'"}

    def _incoming(self, param: str) -> dict:
        """What a parameter carries in: a seed-named one is the trust
        anchor, any other is resolved from its callers."""
        if is_seedish(param):
            return {"v": "ok"}
        return {"v": "params", "params": [param]}

    def _call(self, node: ast.Call) -> dict:
        name = node.func.attr if isinstance(node.func, ast.Attribute) \
            else (node.func.id if isinstance(node.func, ast.Name) else "")
        if name in _BAD_CALLS:
            return {"v": "bad",
                    "why": f"{name}() varies across runs/processes"}
        if name in _PURE_CALLS:
            parts = [self.of(a) for a in node.args]
            parts.extend(self.of(kw.value) for kw in node.keywords)
            if isinstance(node.func, ast.Attribute):
                parts.append(self.of(node.func.value))
            return combine(*parts) if parts else {"v": "ok"}
        return {"v": "unknown", "why": f"opaque call {name or '?'}()"}


# --------------------------------------------------------------------------
# per-function extraction
# --------------------------------------------------------------------------

def _own_statements(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """Walk a function's AST, excluding nested function/class scopes."""
    work: list[ast.AST] = list(fn.body)
    while work:
        node = work.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Lambda)):
                work.append(child)


def _terminal(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _terminal(node.func)
    return ""


def _bind(assigns: dict[str, list[ast.expr]], target: ast.expr,
          value: ast.expr) -> None:
    """Record ``value`` as a source of every name ``target`` binds: an
    unpacked tuple display pairs element-wise, any other unpacking
    (and a loop variable, given its iterable) takes the whole value."""
    if isinstance(target, ast.Name):
        assigns.setdefault(target.id, []).append(value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        paired = isinstance(value, (ast.Tuple, ast.List)) \
            and len(value.elts) == len(target.elts) \
            and not any(isinstance(e, ast.Starred) for e in target.elts)
        for i, t in enumerate(target.elts):
            _bind(assigns, t, value.elts[i] if paired else value)
    elif isinstance(target, ast.Starred):
        _bind(assigns, target.value, value)


def _has_tag(lines: list[str], lineno: int) -> bool:
    return 1 <= lineno <= len(lines) and bool(RELAXED_TAG.search(lines[lineno - 1]))


def _extract_function(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                      qualname: str, cls: str, ctx: ModuleContext,
                      lines: list[str]) -> FunctionFacts:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    facts = FunctionFacts(
        qualname=qualname, module=ctx.module, package=ctx.package,
        file=ctx.path, line=fn.lineno, name=fn.name, cls=cls, params=names,
        relaxed_def=_has_tag(lines, fn.lineno),
    )

    # ---- local assignment map (flow-insensitive) + generator-ness
    assigns: dict[str, list[ast.expr]] = {}
    ok_acks: list[tuple[int, int]] = []  # (line, col) of encode("OK") calls
    rng_calls: list[ast.Call] = []
    for node in _own_statements(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            facts.is_generator = True
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                _bind(assigns, t, node.value)
        elif isinstance(node, ast.AugAssign):
            # `x op= v` reads x as well as v
            _bind(assigns, node.target,
                  ast.BinOp(left=node.target, op=node.op, right=node.value))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            if node.value is not None:
                _bind(assigns, node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _bind(assigns, node.target, node.iter)
        elif isinstance(node, ast.Call):
            name = _terminal(node.func)
            if name == "encode" and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value == "OK":
                ok_acks.append((node.lineno, node.col_offset))
            elif name in RNG_NAMES:
                rng_calls.append(node)
            elif name in GATE_NAMES:
                facts.calls_gates = True
            elif name == "process":
                recv = ""
                if isinstance(node.func, ast.Attribute):
                    recv = _terminal(node.func.value)
                if recv.lstrip("_").startswith("env") and node.args:
                    target = node.args[0]
                    tname = _terminal(target)
                    if tname:
                        hint = ""
                        t = target.func if isinstance(target, ast.Call) \
                            else target
                        if isinstance(t, ast.Attribute) \
                                and isinstance(t.value, ast.Name) \
                                and t.value.id == "self":
                            hint = cls
                        facts.spawns.append({"name": tname, "cls": hint})

    prov = _Provenance(names, assigns)

    # ---- parameter defaults feed provenance for short call sites
    pos = args.posonlyargs + args.args
    defaults = args.defaults
    for a, d in zip(pos[len(pos) - len(defaults):], defaults):
        facts.param_defaults[a.arg] = prov.of(d)
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            facts.param_defaults[a.arg] = prov.of(d)

    # ---- RNG seed provenance (SLIM011 raw material)
    for call in rng_calls:
        seed_arg: ast.expr | None = call.args[0] if call.args else None
        if seed_arg is None:
            for kw in call.keywords:
                if kw.arg in ("seed", "x"):
                    seed_arg = kw.value
                    break
        if seed_arg is None:
            verdict = {"v": "bad", "why": "constructed with no seed"}
        else:
            verdict = prov.of(seed_arg)
        facts.rngs.append({
            "line": call.lineno, "col": call.col_offset,
            "ctor": _terminal(call.func), "prov": verdict,
        })

    # ---- CFG-derived facts: calls, yields, races, ack domination
    cfg = build_cfg(fn)
    call_nodes: dict[tuple[int, int, str], ast.Call] = {}
    for node in _own_statements(fn):
        if isinstance(node, ast.Call):
            call_nodes[(node.lineno, node.col_offset,
                        _terminal(node.func))] = node
    ack_events: list[tuple[str, Ev]] = []
    for blk in cfg.blocks:
        for ev in blk.events:
            if ev.kind == "yield":
                if ev.bare:
                    facts.has_bare_yield = True
                for c in ev.callees:
                    if c not in facts.yield_callees:
                        facts.yield_callees.append(c)
            elif ev.kind == "call":
                site = {"name": ev.name, "recv": ev.recv, "line": ev.line,
                        "locked": bool(ev.locks)}
                node = call_nodes.get((ev.line, ev.col, ev.name))
                if node is not None:
                    site["args"] = [prov.of(a) for a in node.args
                                    if not isinstance(a, ast.Starred)]
                    site["kwargs"] = {kw.arg: prov.of(kw.value)
                                      for kw in node.keywords if kw.arg}
                facts.calls.append(site)
                if ev.name == "encode" and (ev.line, ev.col) in ok_acks:
                    ack_events.append(("resp-ok", ev))
            elif ev.kind == "return" and fn.name == "execute" \
                    and facts.is_generator and cls:
                ack_events.append(("execute-return", ev))

    for kind, ev in ack_events:
        doms = dominating_calls(cfg, ev)
        facts.acks.append({
            "kind": kind, "line": ev.line, "col": ev.col,
            "relaxed": _has_tag(lines, ev.line) or facts.relaxed_def,
            "gated": any(d.name in GATE_NAMES for d in doms),
            "dom_calls": sorted({d.name for d in doms}),
        })

    for c in find_race_candidates(cfg):
        facts.races.append({
            "attr": c.attr, "read_line": c.read_line,
            "yield_line": c.yield_line, "write_line": c.write_line,
            "write_col": c.write_col,
            "yield_callees": list(c.yield_callees),
        })
    return facts


def extract_module(tree: ast.Module, lines: list[str],
                   ctx: ModuleContext) -> list[FunctionFacts]:
    """Facts for every function of one parsed module (``lines`` is its
    source, split, for the relaxed-durability tags)."""
    out: list[FunctionFacts] = []

    def visit(body: list[ast.stmt], prefix: str, cls: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                q = f"{prefix}{node.name}"
                visit(node.body, f"{q}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{prefix}{node.name}"
                out.append(_extract_function(node, q, cls, ctx, lines))
                visit(node.body, f"{q}.<locals>.", cls)

    visit(tree.body, "", "")
    return out
