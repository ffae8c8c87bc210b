"""Render a slimcheck result as text or SARIF 2.1.0.

SARIF output follows the minimal schema GitHub code scanning ingests:
one run, one rule descriptor per rule that ran, one result per finding
with a physical location.  Flow findings that carry a race *trace*
export it as SARIF ``relatedLocations`` (one per read/yield/write
step).
"""

from __future__ import annotations

import json

from repro.analysis.linter import ALL_RULES, LintResult

__all__ = ["render_text", "render_sarif"]

_TOOL = "slimcheck"

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    lines.extend(result.errors)
    n = len(result.findings)
    noun = "finding" if n == 1 else "findings"
    lines.append(f"{_TOOL}: {n} {noun} in {result.files_checked} files "
                 f"({result.suppressed} suppressed)")
    return "\n".join(lines)


def _location(uri: str, line: int, col: int, message: str | None = None) -> dict:
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": uri.replace("\\", "/")},
            "region": {"startLine": line, "startColumn": col + 1},
        }
    }
    if message is not None:
        loc["message"] = {"text": message}
    return loc


def render_sarif(result: LintResult, rules=ALL_RULES) -> str:
    descriptors = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = []
    for f in result.findings:
        entry = {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [_location(f.file, f.line, f.col)],
        }
        trace = getattr(f, "trace", ())
        if trace:
            entry["relatedLocations"] = [
                _location(f.file, line, 0, message=label)
                for label, line in trace
            ]
        results.append(entry)
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL,
                        "informationUri":
                            f"https://example.invalid/slimio/{_TOOL}",
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)

