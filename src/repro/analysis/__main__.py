"""slimcheck CLI: the per-file and whole-program rules in one pass.

Usage::

    python -m repro.analysis [paths ...]
    python -m repro.analysis src --format sarif --output slimcheck.sarif
    python -m repro.analysis --list-rules

The per-file rules (SLIM001-009) see every input; the whole-program
rules (SLIM010-012) see the ``src/repro`` modules among them.
Exit status: 0 clean, 1 findings (or unreadable files), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.linter import ALL_RULES, lint_paths
from repro.analysis.output import render_sarif, render_text


def _codes(spec: str) -> set[str]:
    return {c.strip().upper() for c in spec.split(",") if c.strip()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="slimcheck: domain-aware static analysis for the "
                    "SlimIO tree.",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to check "
                             "(default: src tests examples)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--output", default=None,
                        help="write the report to this file instead of "
                             "stdout")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:<26} {rule.summary}")
        return 0

    known = {rule.code for rule in ALL_RULES}
    select = _codes(args.select) if args.select else set(known)
    if args.ignore:
        select -= _codes(args.ignore)
    unknown = select - known
    if unknown:
        print(f"unknown rule code(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = args.paths or [p for p in ("src", "tests", "examples")
                           if Path(p).exists()]
    if not paths:
        print("nothing to check (no paths given and no src/tests/examples "
              "here)", file=sys.stderr)
        return 2

    result = lint_paths(paths, select=select)
    if args.format == "sarif":
        report = render_sarif(result, [r for r in ALL_RULES
                                       if r.code in select])
    else:
        report = render_text(result)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n", encoding="utf-8")
        print(f"(report written to {out})", file=sys.stderr)
    else:
        print(report)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
