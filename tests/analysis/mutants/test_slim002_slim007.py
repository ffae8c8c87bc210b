"""SLIM002 and SLIM007 mutants: the real WAL write in ``core/paths.py``.

Every page the WAL path writes is tagged with the placement policy's
WAL PID (``WriteCmd(..., pid=self.placement.wal_pid)``).  Dropping the
tag leaves the write on the default metadata PID, silently mixing
lifetimes (SLIM007); hard-coding a PID literal bypasses the placement
policy (SLIM002).  Each mutant must give exactly one finding, on the
write's line, and the real file none.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

PATHS = Path(__file__).resolve().parents[3] / "src/repro/core/paths.py"
WAL_WRITE = "WriteCmd(lba=lba, nlb=n, data=piece, pid=self.placement.wal_pid)"


def _lint(src):
    return lint_source(src, path="src/repro/core/paths.py", package="core")


def test_the_real_wal_write_is_clean():
    src = PATHS.read_text()
    assert src.count(WAL_WRITE) == 1
    assert _lint(src).findings == []


@pytest.mark.parametrize("mutant, code", [
    ("WriteCmd(lba=lba, nlb=n, data=piece)", "SLIM007"),
    ("WriteCmd(lba=lba, nlb=n, data=piece, pid=3)", "SLIM002"),
])
def test_a_mutated_wal_write_is_flagged_once(mutant, code):
    src = PATHS.read_text()
    line = src[:src.index(WAL_WRITE)].count("\n") + 1
    result = _lint(src.replace(WAL_WRITE, mutant))
    assert [(f.code, f.line) for f in result.findings] == [(code, line)]
