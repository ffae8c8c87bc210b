"""SLIM001 mutants: real ``src`` code with a raw device read re-injected.

``core/verify.py`` is the offline fsck, the one ``src`` module outside
the kernel/NVMe layers that reads flash raw, and it says so with a
pragma on its ``device.peek``.  Each mutant swaps that read for another
raw accessor without the pragma; SLIM001 must flag it.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

VERIFY = Path(__file__).resolve().parents[3] / "src/repro/core/verify.py"
SANCTIONED = "    return device.peek(lba, n)  # slimlint: ignore[SLIM001]\n"


def _lint(src):
    return lint_source(src, path="src/repro/core/verify.py", package="core")


def test_the_sanctioned_read_is_suppressed():
    src = VERIFY.read_text()
    assert src.count(SANCTIONED) == 1
    result = _lint(src)
    assert result.ok and result.suppressed == 1


@pytest.mark.parametrize("mutant", [
    # a raw read through the zero-time accessor ``peek`` joins
    '    return b"".join(device.pages(lba, n))\n',
    "    return device.peek(lba, n)\n",
])
def test_a_raw_read_without_its_pragma_is_flagged(mutant):
    result = _lint(VERIFY.read_text().replace(SANCTIONED, mutant))
    assert [(f.code, f.line) for f in result.findings] == [
        ("SLIM001", _line_of(mutant))]


def _line_of(mutant):
    lines = VERIFY.read_text().replace(SANCTIONED, mutant).splitlines()
    return lines.index(mutant.rstrip("\n")) + 1
