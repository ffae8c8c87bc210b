"""EXPERIMENTS.md's summary against the goldens it summarizes.

The page is hand-written; its summary states how many shape checks
pass and which miss at ``test`` and ``bench`` scale. Those are read off
``golden/test_scale.txt`` and ``golden/bench_scale.txt`` here, so a
change that moves a golden's verdicts must move the page with it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden"


def _summary() -> str:
    page = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return page.split("Summary", 1)[1].split("\n---", 1)[0]


def _verdicts(text: str) -> tuple[int, list[str]]:
    """``[ok]`` count and the ``[MISS]`` lines of a report."""
    lines = [line.strip() for line in text.splitlines()]
    return (sum(line.startswith("[ok] ") for line in lines),
            [line for line in lines if line.startswith("[MISS] ")])


@pytest.mark.parametrize("scale", ["test", "bench"])
def test_summary_counts_match_the_golden(scale):
    stated = re.search(
        rf"`{scale}` scale: \*\*(\d+) `\[ok\]`, (\d+) `\[MISS\]`\*\*",
        _summary())
    assert stated, f"no parseable {scale}-scale count in the summary"
    ok, misses = _verdicts(
        (GOLDEN / f"{scale}_scale.txt").read_text(encoding="utf-8"))
    assert (int(stated[1]), int(stated[2])) == (ok, len(misses))


def test_summary_names_every_bench_miss():
    named = re.findall(r"`(\[MISS\] [^`]+)`", _summary())
    _, misses = _verdicts(
        (GOLDEN / "bench_scale.txt").read_text(encoding="utf-8"))
    assert named == misses
