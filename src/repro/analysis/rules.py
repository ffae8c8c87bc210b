"""slimlint rule definitions: the invariants the type system cannot see.

Each rule is an AST pass over one module, parameterized by the module's
*package scope* — which ``repro`` sub-package the file belongs to
(``tests/<pkg>/...`` maps onto ``<pkg>``, so a package's own tests may
exercise its internals without ceremony). Rules yield
:class:`Finding`\\ s with precise ``file:line:col`` anchors; the driver
(:mod:`repro.analysis.linter`) applies ``# slimlint: ignore[SLIM001]``
-style suppressions afterwards.

The rules (see docs/ANALYSIS.md for the full rationale):

* **SLIM001** — no direct device data-plane access (``device.submit``,
  ``device.peek``, ``device.pages``) outside the kernel/NVMe layers. All I/O must go
  through a ring (:class:`~repro.kernel.iouring.IoUringRing`) or the
  file-system path, so placement tags and timing are never bypassed.
* **SLIM002** — no integer Placement-ID literals at call sites outside
  ``core/placement.py`` and ``cluster/pids.py``. A hard-coded PID
  silently defeats lifetime separation when the policy changes.
* **SLIM003** — no wall clock (``time.time``, ``datetime.now``) or
  unseeded randomness anywhere in the tree; the simulation must be
  deterministic. ``time.perf_counter`` is allowed only in the
  designated measurement shells (``bench/__main__.py``,
  ``faults/__main__.py``) — the harness code that
  times the simulator from outside; anywhere else it is a wall-clock
  leak into simulated behavior.
* **SLIM004** — package imports must respect the layering
  ``sim < obs < flash < nvme < kernel < persist < imdb < core <
  analysis < faults/workloads < cluster < bench``; only module-level
  imports
  are checked (function-local imports are the sanctioned escape hatch
  for build-time wiring).
* **SLIM005** — every ``MetricsRegistry`` instrument name follows the
  documented scheme: snake_case, counters end ``_total``, histograms
  carry a unit suffix (``_seconds``/``_bytes``), gauges never end
  ``_total``.
* **SLIM006** — no FTL-internal access (``.ftl.write`` etc.) outside
  ``repro/flash`` and ``repro/nvme``; read-only statistics
  (``.ftl.stats``, ``.ftl.window()``, ``.ftl.lifetime``, ...) are the
  sanctioned surface.
* **SLIM007** — every ``WriteCmd`` built in the FDP-aware layers
  (``core``, ``cluster``, ``analysis``) must carry an explicit
  ``pid=``; the default (0) is the metadata PID and mixes lifetimes
  silently.
* **SLIM008** — no mutation of the LBA state machine (slot ``roles``,
  WAL ``head``/``gen_start``/``prev_start``) outside ``repro/core``;
  those fields move only through the §4.2 protocol.
* **SLIM009** — ``repro.net`` is a *simulated* network: no real-network
  module imports (``socket``, ``asyncio``, ``ssl``, ...) and no
  ``time.*`` calls at all (not even the measurement-shell exemption
  SLIM003 grants ``perf_counter``) — connection timing must come from
  the Environment clock, or open-loop schedules stop being
  reproducible.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = ["Finding", "Rule", "RULES", "LAYER_RANKS", "run_rules"]


@dataclass(frozen=True)
class Finding:
    """One diagnostic, anchored to a source location."""

    code: str
    message: str
    file: str
    line: int
    col: int

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity plus its checker function."""

    code: str
    name: str
    summary: str
    check: object  # Callable[[ast.AST, ModuleContext], Iterator[Finding]]


@dataclass(frozen=True)
class ModuleContext:
    """Where a module sits in the tree, for scope-sensitive rules."""

    path: str  # as reported in findings (relative when possible)
    package: str | None  # repro sub-package this file belongs to
    is_test: bool
    is_src: bool
    module: str = ""  # dotted name, e.g. "repro.persist.wal"


#: package layering, low rank = lower layer (may not import upward)
LAYER_RANKS = {
    "sim": 0,
    "obs": 1,
    "flash": 2,
    "nvme": 3,
    "kernel": 4,
    "persist": 5,
    "imdb": 6,
    "core": 7,
    "analysis": 8,
    # fault injection wraps devices and boots whole systems, so it sits
    # above core (the engine reaches it only via lazy import)
    "faults": 9,
    "workloads": 9,
    # the simulated connection front end frames RESP through imdb and
    # draws its key/value generators from workloads; bench sits above
    "net": 9,
    "cluster": 10,
    "bench": 11,
}

#: receiver names that identify "the device object" for SLIM001
_DEVICE_NAMES = ("device", "dev", "partition", "part", "nvme", "ssd")
#: keyword names that carry a Placement ID (SLIM002)
_PID_KEYWORDS = {
    "pid", "metadata_pid", "wal_pid", "wal_snapshot_pid",
    "ondemand_snapshot_pid",
}
#: read-only FTL surface callable from any layer (SLIM006);
#: ``obs`` is the registry the FTL books into and ``rtrace`` the
#: request-tracer attach point — observation only
_FTL_PUBLIC = {"stats", "window", "lifetime", "stream_ids",
               "obs", "num_lpns", "rtrace"}
#: attributes of the LBA state machine (SLIM008)
_STATE_ATTRS = {"roles", "gen_start", "head", "prev_start"}
_STATE_RECEIVERS = {"slots", "wal"}


def _terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a dotted expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _mentions_device(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    name = name.lower().lstrip("_")
    return any(name == d or name.endswith("_" + d) for d in _DEVICE_NAMES)


def _find(ctx: ModuleContext, code: str, node: ast.AST, msg: str) -> Finding:
    return Finding(code, msg, ctx.path,
                   getattr(node, "lineno", 1), getattr(node, "col_offset", 0))


# --------------------------------------------------------------------------
# SLIM001 — direct device data-plane access
# --------------------------------------------------------------------------

#: faults is allowed raw access: the injector tears/restores page images
#: (peek/poke) and forwards submit() as a device proxy, below any ring
_SLIM001_ALLOWED = {"kernel", "nvme", "flash", "analysis", "faults"}


def _check_device_access(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package in _SLIM001_ALLOWED:
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in ("submit", "peek", "pages"):
            continue
        if _mentions_device(node.func.value):
            yield _find(
                ctx, "SLIM001", node,
                f"direct device .{node.func.attr}() outside repro/kernel "
                f"and repro/nvme — route I/O through a ring "
                f"(IoUringRing/PassthruQueuePair) or the fs path so "
                f"placement tags and timing are never bypassed",
            )


# --------------------------------------------------------------------------
# SLIM002 — integer PID literals
# --------------------------------------------------------------------------

_SLIM002_ALLOWED_FILES = ("core/placement.py", "cluster/pids.py")


def _check_pid_literals(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if any(ctx.path.replace("\\", "/").endswith(f)
           for f in _SLIM002_ALLOWED_FILES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg in _PID_KEYWORDS and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, int) \
                    and not isinstance(kw.value.value, bool):
                yield _find(
                    ctx, "SLIM002", kw.value,
                    f"integer Placement-ID literal ({kw.arg}="
                    f"{kw.value.value}) outside core/placement.py / "
                    f"cluster/pids.py — derive PIDs from a "
                    f"PlacementPolicy so lifetime separation survives "
                    f"policy changes",
                )


# --------------------------------------------------------------------------
# SLIM003 — wall clock / unseeded randomness
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
#: perf_counter is a wall clock too, but it is the sanctioned way to
#: *measure* the simulator from outside. Only the measurement shells —
#: the bench and faults CLIs, which time their own runs — may call it;
#: model code that needs "now" must use the Environment clock.
_PERF_COUNTER = {("time", "perf_counter"), ("time", "perf_counter_ns")}
_SLIM003_MEASUREMENT_FILES = ("bench/__main__.py", "faults/__main__.py")
_RANDOM_MODULE_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "betavariate", "expovariate", "seed",
    "getrandbits", "normalvariate", "triangular",
}


def _dotted(node: ast.expr) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _check_determinism(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if len(parts) < 2:
            continue
        head, tail = parts[-2], parts[-1]
        if (head, tail) in _WALL_CLOCK:
            yield _find(
                ctx, "SLIM003", node,
                f"wall-clock call {head}.{tail}() — simulated code must "
                f"be deterministic; use the Environment clock (env.now), "
                f"or time.perf_counter for wall-time *measurement* only",
            )
        elif (head, tail) in _PERF_COUNTER and not any(
                ctx.path.replace("\\", "/").endswith(f)
                for f in _SLIM003_MEASUREMENT_FILES):
            yield _find(
                ctx, "SLIM003", node,
                f"{head}.{tail}() outside the measurement shells "
                f"({', '.join(_SLIM003_MEASUREMENT_FILES)}) — wall time "
                f"must never influence simulated behavior; measure from "
                f"the harness, model time with env.now",
            )
        elif head == "random" and tail in _RANDOM_MODULE_FNS:
            yield _find(
                ctx, "SLIM003", node,
                f"global-state randomness random.{tail}() — use a seeded "
                f"np.random.default_rng(seed) / random.Random(seed) so "
                f"runs reproduce",
            )
        elif tail == "Random" and head == "random" and not node.args:
            yield _find(
                ctx, "SLIM003", node,
                "unseeded random.Random() — pass an explicit seed",
            )
        elif tail == "default_rng" and head == "random" and not node.args \
                and not node.keywords:
            yield _find(
                ctx, "SLIM003", node,
                "unseeded np.random.default_rng() — pass an explicit "
                "seed so runs reproduce",
            )


# --------------------------------------------------------------------------
# SLIM004 — package layering (module-level imports only)
# --------------------------------------------------------------------------

def _import_target_package(node: ast.stmt) -> Iterator[tuple[str, ast.stmt]]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        parts = node.module.split(".")
        if parts[0] == "repro":
            if len(parts) > 1:
                yield parts[1], node
            else:  # ``from repro import X`` — X may be a sub-package
                for alias in node.names:
                    if alias.name in LAYER_RANKS:
                        yield alias.name, node


def _check_layering(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.is_src or ctx.package not in LAYER_RANKS:
        return
    my_rank = LAYER_RANKS[ctx.package]
    if not isinstance(tree, ast.Module):
        return
    for stmt in tree.body:  # module level only: lazy imports are exempt
        for pkg, node in _import_target_package(stmt):
            rank = LAYER_RANKS.get(pkg)
            if rank is not None and rank > my_rank:
                yield _find(
                    ctx, "SLIM004", node,
                    f"layer inversion: repro.{ctx.package} (layer "
                    f"{my_rank}) imports repro.{pkg} (layer {rank}) at "
                    f"module level — depend downward only, or use a "
                    f"function-local import for build-time wiring",
                )


# --------------------------------------------------------------------------
# SLIM005 — metric naming scheme
# --------------------------------------------------------------------------

_REGISTRY_NAMES = {"registry", "obs", "reg", "metrics"}
_UNIT_SUFFIXES = ("_seconds", "_bytes", "_pages", "_ratio")


def _is_registry_receiver(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    name = name.lower().lstrip("_")
    return name in _REGISTRY_NAMES or name.endswith("_obs") or name == "obs"


def _check_metric_names(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    import re

    ident = re.compile(r"^[a-z][a-z0-9_]*$")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        kind = node.func.attr
        if kind == "samples":  # the exact instrument exports as one
            kind = "histogram"
        if kind not in ("counter", "gauge", "histogram"):
            continue
        if not _is_registry_receiver(node.func.value):
            continue
        if not node.args or not isinstance(node.args[0], ast.Constant) \
                or not isinstance(node.args[0].value, str):
            continue
        name = node.args[0].value
        if not ident.match(name):
            yield _find(
                ctx, "SLIM005", node,
                f"instrument name {name!r} is not snake_case "
                f"(^[a-z][a-z0-9_]*$)",
            )
            continue
        if kind == "counter" and not name.endswith("_total"):
            yield _find(
                ctx, "SLIM005", node,
                f"counter {name!r} must end in _total (monotonic totals)",
            )
        elif kind == "histogram" and not name.endswith(_UNIT_SUFFIXES):
            yield _find(
                ctx, "SLIM005", node,
                f"histogram {name!r} must carry a unit suffix "
                f"({', '.join(_UNIT_SUFFIXES)})",
            )
        elif kind == "gauge" and name.endswith("_total"):
            yield _find(
                ctx, "SLIM005", node,
                f"gauge {name!r} must not end in _total — gauges are "
                f"instantaneous, not monotonic",
            )


# --------------------------------------------------------------------------
# SLIM006 — FTL internals
# --------------------------------------------------------------------------

_SLIM006_ALLOWED = {"flash", "nvme"}


def _check_ftl_internals(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package in _SLIM006_ALLOWED:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        recv = node.value
        if _terminal_name(recv) == "ftl" and node.attr not in _FTL_PUBLIC:
            yield _find(
                ctx, "SLIM006", node,
                f"FTL-internal access .ftl.{node.attr} outside "
                f"repro/flash and repro/nvme — the sanctioned surface is "
                f"{sorted(_FTL_PUBLIC)}; anything else belongs behind "
                f"the device",
            )


# --------------------------------------------------------------------------
# SLIM007 — untagged FDP writes
# --------------------------------------------------------------------------

_SLIM007_SCOPE = {"core", "cluster", "analysis"}


def _check_untagged_writes(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package not in _SLIM007_SCOPE:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name != "WriteCmd":
            continue
        if not any(kw.arg == "pid" for kw in node.keywords):
            yield _find(
                ctx, "SLIM007", node,
                "WriteCmd without an explicit pid= in an FDP-aware layer "
                "— the default (0) is the metadata PID and silently "
                "mixes lifetimes; tag every write from the "
                "PlacementPolicy",
            )


# --------------------------------------------------------------------------
# SLIM008 — LBA state-machine mutation
# --------------------------------------------------------------------------

def _state_targets(node: ast.stmt) -> Iterator[ast.Attribute]:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for t in targets:
        if isinstance(t, ast.Attribute):
            yield t
        elif isinstance(t, (ast.Tuple, ast.List)):
            for el in t.elts:
                if isinstance(el, ast.Attribute):
                    yield el


def _check_state_mutation(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package in ("core", "analysis"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        for target in _state_targets(node):
            if target.attr not in _STATE_ATTRS:
                continue
            recv = _terminal_name(target.value)
            if recv in _STATE_RECEIVERS:
                yield _find(
                    ctx, "SLIM008", node,
                    f"direct mutation of {recv}.{target.attr} outside "
                    f"repro/core — slot roles and WAL cursors move only "
                    f"through the §4.2 protocol (promote / alloc / "
                    f"start_new_generation / recovery)",
                )


# --------------------------------------------------------------------------
# SLIM009 — the simulated network must stay simulated
# --------------------------------------------------------------------------

#: module roots whose import into repro.net means real networking (or a
#: real event loop) is leaking into the simulation
_NET_FORBIDDEN_IMPORTS = {
    "socket", "socketserver", "selectors", "ssl", "asyncio", "http",
    "urllib", "requests", "websockets", "ftplib", "smtplib", "telnetlib",
}


def _check_net_purity(tree: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package != "net":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _NET_FORBIDDEN_IMPORTS:
                    yield _find(
                        ctx, "SLIM009", node,
                        f"import {alias.name} inside repro.net — the "
                        f"connection front end is simulated; model "
                        f"sockets with Store/Event on the Environment "
                        f"clock, never real ones",
                    )
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            root = node.module.split(".")[0]
            if root in _NET_FORBIDDEN_IMPORTS:
                yield _find(
                    ctx, "SLIM009", node,
                    f"import from {node.module} inside repro.net — the "
                    f"connection front end is simulated; model sockets "
                    f"with Store/Event on the Environment clock, never "
                    f"real ones",
                )
        elif isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if len(parts) >= 2 and parts[-2] == "time":
                yield _find(
                    ctx, "SLIM009", node,
                    f"time.{parts[-1]}() inside repro.net — no wall "
                    f"clock of any kind here (SLIM003's measurement-"
                    f"shell exemption does not apply); latency and "
                    f"pacing come from env.now",
                )


RULES: tuple[Rule, ...] = (
    Rule("SLIM001", "direct-device-access",
         "no device.submit/peek/pages outside kernel+nvme",
         _check_device_access),
    Rule("SLIM002", "pid-literal",
         "no integer PID literals outside placement.py/pids.py",
         _check_pid_literals),
    Rule("SLIM003", "nondeterminism",
         "no wall clock or unseeded randomness", _check_determinism),
    Rule("SLIM004", "layer-inversion",
         "imports must respect the package layering", _check_layering),
    Rule("SLIM005", "metric-naming",
         "instrument names follow the documented scheme",
         _check_metric_names),
    Rule("SLIM006", "ftl-internals",
         "no FTL-internal access outside flash+nvme", _check_ftl_internals),
    Rule("SLIM007", "untagged-write",
         "WriteCmd in FDP-aware layers must pass pid=",
         _check_untagged_writes),
    Rule("SLIM008", "state-machine-mutation",
         "no slot/WAL state mutation outside core", _check_state_mutation),
    Rule("SLIM009", "net-purity",
         "repro.net: no real sockets, no wall clocks", _check_net_purity),
)


def run_rules(tree: ast.AST, ctx: ModuleContext,
              select: set[str] | None = None) -> list[Finding]:
    """All findings of the selected rules on one parsed module."""
    out: list[Finding] = []
    for rule in RULES:
        if select is not None and rule.code not in select:
            continue
        out.extend(rule.check(tree, ctx))
    return out
