"""SLIM005 mutant: the real WAL flush-size histogram in ``core/paths.py``.

``walpath_flush_bytes`` carries its unit as a suffix, as every
histogram must (the exporters and dashboards read the unit from the
name). Dropping the suffix must give exactly one SLIM005 finding, on the
histogram's line, and the real file none.
"""

from pathlib import Path

from repro.analysis import lint_source

PATHS = Path(__file__).resolve().parents[3] / "src/repro/core/paths.py"
HISTOGRAM = 'self.obs.histogram("walpath_flush_bytes")'


def _lint(src):
    return lint_source(src, path="src/repro/core/paths.py", package="core")


def test_the_real_flush_histogram_is_clean():
    src = PATHS.read_text()
    assert src.count(HISTOGRAM) == 1
    assert _lint(src).findings == []


def test_a_histogram_without_its_unit_is_flagged_once():
    src = PATHS.read_text()
    line = src[:src.index(HISTOGRAM)].count("\n") + 1
    result = _lint(src.replace(HISTOGRAM,
                               'self.obs.histogram("walpath_flush")'))
    assert [(f.code, f.line) for f in result.findings] == [("SLIM005", line)]
