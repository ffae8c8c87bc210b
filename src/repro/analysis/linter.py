"""slimcheck driver: one pass, twelve rules, one result.

The driver walks the requested paths once. Each file is scoped, parsed
and pragma-scanned once, and its tree feeds two consumers:

* the per-file rules SLIM001-009 (:mod:`repro.analysis.rules`), which
  judge the module alone;
* for modules under ``src/repro``, slimflow's fact extraction
  (:func:`repro.analysis.flow.project.extract_module`). When every file
  is read, the whole-program rules SLIM010-012 run over the joined
  facts (:func:`repro.analysis.flow.driver.flow_findings`).

*Package scope*: ``src/repro/<pkg>/...`` and ``tests/<pkg>/...`` both
map onto ``<pkg>``, so a layer's own tests share its privileges; the
dotted module name counts from ``repro``.

Every finding, local or whole-program, then passes the ``# slimlint:``
pragmas of the file it lands in:

* ``# slimlint: ignore[SLIM001]`` — trailing comment suppresses the
  named rule(s) on that line (comma-separate for several); it may sit
  on the first or the last line of a multi-line statement.
* ``# slimlint: ignore-file[SLIM003]`` — anywhere in the file,
  suppresses the rule(s) for the whole module.

Suppression is deliberately *rule-scoped*: there is no bare ``ignore``
that silences everything, so every pragma documents which invariant it
is waiving.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.flow.driver import flow_findings
from repro.analysis.flow.project import extract_module
from repro.analysis.flow.rules import FLOW_CODES, FLOW_RULES
from repro.analysis.rules import RULES, Finding, ModuleContext, run_rules

__all__ = ["ALL_RULES", "LintResult", "analyze_sources", "lint_paths",
           "lint_source"]

#: the whole catalogue: per-file rules, then whole-program rules
ALL_RULES = RULES + FLOW_RULES

_PRAGMA = re.compile(r"#\s*slimlint:\s*(ignore(?:-file)?)\[([A-Za-z0-9,\s]+)\]")
#: any line that *tries* to write a pragma — used to diagnose typos
#: that the strict pattern would otherwise silently skip
_PRAGMA_ATTEMPT = re.compile(r"#\s*slimlint:\s*ignore")
_KNOWN_CODES = {rule.code for rule in ALL_RULES}


@dataclass
class LintResult:
    """Findings plus bookkeeping from one run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def _context(display: str) -> ModuleContext:
    """Scope a file by its display path (relative to the run's root
    when it lies under it)."""
    parts = Path(display).parts
    package: str | None = None
    is_src = False
    module = Path(display).stem
    if "repro" in parts:
        i = parts.index("repro")
        is_src = i == 0 or "src" in parts[:i]
        if i + 2 < len(parts):
            package = parts[i + 1]
        stem = [] if module == "__init__" else [module]
        module = ".".join(list(parts[i:-1]) + stem)
    is_test = "tests" in parts
    if is_test and package is None:
        i = parts.index("tests")
        if i + 2 < len(parts):
            package = parts[i + 1]
    return ModuleContext(path=display, package=package, is_test=is_test,
                         is_src=is_src, module=module)


class _Pragmas:
    """One file's suppressions, applied to every finding that lands in it."""

    def __init__(self, lines: list[str], path: str, tree: ast.Module,
                 errors: list[str]):
        self.line_sup: dict[int, set[str]] = {}
        self.file_sup: set[str] = set()
        self._scan(lines, path, errors)
        #: (lineno, col) -> end_lineno of the node there, so a pragma on
        #: a multi-line statement's last line matches too
        self.end_lines: dict[tuple[int, int], int] = {}
        if self.line_sup:
            for node in ast.walk(tree):
                end = getattr(node, "end_lineno", None)
                if end is not None:
                    key = (node.lineno, node.col_offset)
                    self.end_lines[key] = max(self.end_lines.get(key, end),
                                              end)

    def _scan(self, lines: list[str], path: str, errors: list[str]) -> None:
        """A pragma that would silently suppress *nothing* is worse than
        no pragma — the author believes an invariant is waived when it
        is not — so a line that attempts an ignore pragma but does not
        parse, or that names a rule id no rule owns, is reported as an
        error instead of being skipped."""
        for lineno, line in enumerate(lines, start=1):
            matches = _PRAGMA.findall(line)
            if not matches:
                if _PRAGMA_ATTEMPT.search(line):
                    errors.append(
                        f"{path}:{lineno}: malformed slimlint pragma "
                        f"(expected ignore[SLIM0xx] or ignore-file[SLIM0xx] "
                        f"after the marker)")
                continue
            for kind, codes_str in matches:
                codes = {c.strip() for c in codes_str.split(",") if c.strip()}
                if not codes:
                    errors.append(f"{path}:{lineno}: slimlint pragma names "
                                  f"no rule codes")
                    continue
                unknown = codes - _KNOWN_CODES
                if unknown:
                    errors.append(
                        f"{path}:{lineno}: unknown rule id(s) in slimlint "
                        f"pragma: {', '.join(sorted(unknown))}")
                codes -= unknown
                if kind == "ignore-file":
                    self.file_sup |= codes
                else:
                    self.line_sup.setdefault(lineno, set()).update(codes)

    def admit(self, f: Finding, res: LintResult) -> None:
        end = self.end_lines.get((f.line, f.col), f.line)
        if f.code in self.file_sup or any(
                f.code in self.line_sup.get(n, ()) for n in (f.line, end)):
            res.suppressed += 1
        else:
            res.findings.append(f)


def _run(units: Iterable[tuple[str, ModuleContext]],
         select: set[str] | None, res: LintResult) -> LintResult:
    """Check (source, context) units: per-file rules as each is parsed,
    then the whole-program rules over the ``src`` modules among them."""
    flow = select is None or bool(select & FLOW_CODES)
    functions = []
    pragmas: dict[str, _Pragmas] = {}
    for source, ctx in units:
        res.files_checked += 1
        try:
            tree = ast.parse(source, filename=ctx.path)
        except SyntaxError as exc:
            res.errors.append(f"{ctx.path}:{exc.lineno or 0}: syntax error: "
                              f"{exc.msg}")
            continue
        lines = source.splitlines()
        sup = _Pragmas(lines, ctx.path, tree, res.errors)
        for f in run_rules(tree, ctx, select):
            sup.admit(f, res)
        if flow and ctx.is_src:
            functions.extend(extract_module(tree, lines, ctx))
            pragmas[ctx.path] = sup
    if flow:
        for f in flow_findings(functions, select):
            pragmas[f.file].admit(f, res)
    res.findings.sort(key=lambda f: (f.file, f.line, f.col, f.code))
    return res


def lint_source(source: str, path: str = "<string>",
                package: str | None = None, *,
                is_test: bool = False, is_src: bool = True,
                select: set[str] | None = None) -> LintResult:
    """Run the per-file rules on one in-memory module (the unit-test
    entry point for SLIM001-009)."""
    ctx = ModuleContext(path=path, package=package,
                        is_test=is_test, is_src=is_src)
    per_file = (_KNOWN_CODES if select is None else select) - FLOW_CODES
    return _run([(source, ctx)], per_file, LintResult())


def analyze_sources(sources: dict[str, str], *,
                    select: set[str] | None = None) -> LintResult:
    """Run the whole-program rules (by default only SLIM010-012) on an
    in-memory module set, keyed by display path (e.g.
    ``{"src/repro/imdb/fake.py": "..."}`` — the path decides the
    module's dotted name and package scope)."""
    units = [(source, _context(display))
             for display, source in sources.items()]
    return _run(units, FLOW_CODES if select is None else select,
                LintResult())


def _discover(paths: list[str], base: Path,
              errors: list[str]) -> Iterator[tuple[Path, str]]:
    """Each .py file under ``paths`` once, with its display path."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files = sorted(p.rglob("*.py"))
        elif p.is_file():
            files = [p]
        else:
            errors.append(f"{raw}: no such file or directory")
            continue
        for f in files:
            rp = f.resolve()
            if rp in seen:
                continue
            seen.add(rp)
            try:
                yield f, str(rp.relative_to(base))
            except ValueError:
                yield f, str(f)


def lint_paths(paths: list[str], *, select: set[str] | None = None,
               root: Path | None = None) -> LintResult:
    """Check files and/or directory trees (directories recurse over
    .py); display paths are relative to ``root`` (default: cwd)."""
    res = LintResult()
    base = (root if root is not None else Path.cwd()).resolve()

    def units() -> Iterator[tuple[str, ModuleContext]]:
        for f, display in _discover(paths, base, res.errors):
            try:
                source = f.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                res.errors.append(f"{display}: unreadable: {exc}")
                continue
            yield source, _context(display)

    return _run(units(), select, res)
