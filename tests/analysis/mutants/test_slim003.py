"""SLIM003 mutants: a wall clock re-injected into the real deflate path.

``persist/compress.py`` tallies the zlib work a process does (calls and
bytes, :func:`repro.persist.compress.tallies`); it counts and never
times, because a wall-clock read on the data plane is one refactor away
from steering the simulated clock. Each mutant times the deflate in
``Compressor.compress``; SLIM003 must flag exactly that line, and the
real file must lint clean.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

COMPRESS = (Path(__file__).resolve().parents[3]
            / "src/repro/persist/compress.py")
DEFLATE = "        return zlib.compress(raw, LEVEL)\n"
IMPORT = "import zlib\n"


def _lint(src):
    return lint_source(src, path="src/repro/persist/compress.py",
                       package="persist")


def test_the_real_deflate_path_is_clean():
    src = COMPRESS.read_text()
    assert src.count(DEFLATE) == 1 and src.count(IMPORT) == 1
    result = _lint(src)
    assert result.findings == [] and result.suppressed == 0


@pytest.mark.parametrize("clock", ["time.monotonic()", "time.perf_counter()"])
def test_a_timed_deflate_is_flagged_once(clock):
    timed = f'        _TALLY["deflate_started_s"] = {clock}\n'
    src = (COMPRESS.read_text()
           .replace(IMPORT, IMPORT + "import time\n")
           .replace(DEFLATE, timed + DEFLATE))
    line = src.splitlines().index(timed.rstrip("\n")) + 1
    result = _lint(src)
    assert [(f.code, f.line) for f in result.findings] == [("SLIM003", line)]
