"""Report formatting tests."""

import numpy as np

from repro.bench.report import ExperimentResult, format_table
from repro.bench.plots import timeline_chart


def test_format_table_alignment():
    out = format_table(["a", "long header"], [[1, 2.5], [10000, 0.001]])
    lines = out.splitlines()
    assert len(lines) == 4
    widths = {len(l) for l in lines}
    assert len(widths) == 1  # all lines equal width


def test_format_table_value_rendering():
    out = format_table(["x"], [[123456.0], [float("nan")], [0.00012345]])
    assert "123,456" in out
    assert "-" in out
    assert "0.0001234" in out or "0.0001235" in out


def test_experiment_result_checks_and_format():
    r = ExperimentResult("Table X", "demo", ["col"], paper_reference="ref")
    r.add_row(42)
    r.check("good", True)
    r.check("bad", False)
    assert not r.shapes_hold
    text = r.format()
    assert "Table X" in text
    assert "[ok] good" in text
    assert "[MISS] bad" in text
    assert "ref" in text


def test_experiment_result_all_pass():
    r = ExperimentResult("T", "t", ["c"])
    r.check("a", True)
    assert r.shapes_hold


def test_timeline_chart_renders_bands():
    series = {
        "a": (np.arange(10.0), np.linspace(0, 100, 10)),
        "b": (np.arange(10.0), np.full(10, 50.0)),
    }
    out = timeline_chart(series, width=20, height=4)
    assert "a  (peak" in out
    assert "b  (peak" in out
    assert out.count("+" + "-" * 20) == 2


def test_timeline_chart_empty():
    assert timeline_chart({}) == "(no series)"
    out = timeline_chart({"x": (np.array([]), np.array([]))})
    assert "(empty)" in out


def test_format_includes_series_chart():
    r = ExperimentResult("F", "fig", ["c"])
    r.add_row(1)
    r.series["sys"] = (np.arange(5.0), np.arange(5.0))
    assert "peak" in r.format()
