"""The ``sweep`` subcommand end to end: determinism across --jobs.

The report and CSV must be byte-identical whatever the process count,
and every run computes every point. The grid here is synthetic
(module-level runner, so it pickles into the worker pool) and includes
a deliberately failing corner, so the whole
mixed-row path — format, CSV, top-N, knife edges, heatmaps — is
exercised through the real CLI.
"""

from __future__ import annotations

import pytest

from repro.bench.__main__ import _sweep_main, main
from repro.bench.sweep import EdgeSpec, GridSpec


def cli_runner(params):
    if params["b"] == "bad" and params["a"] == 2:
        raise RuntimeError("infeasible corner")
    waf = 4.0 if params["a"] == 3 else 1.0
    return {"waf": waf, "score": 10.0 * params["a"] + len(params["b"])}


def _registry(scale_name):
    return {
        "toy": GridSpec(
            name="toy",
            axes={"a": [1, 2, 3], "b": ["ok", "bad"]},
            runner=cli_runner,
            edges=(EdgeSpec("waf", factor=2.0),),
            panels=(("a", "b", "score"),),
            description="synthetic CLI grid",
        ),
    }


@pytest.fixture(autouse=True)
def toy_grids(monkeypatch):
    from repro.bench import experiments

    monkeypatch.setattr(experiments, "sweep_grids", _registry)


def _run(tmp_path, tag, jobs):
    out = tmp_path / tag
    argv = ["--comprehensive", "--scale", "test", "--jobs", str(jobs),
            "--out-dir", str(out)]
    assert _sweep_main(argv) == 0
    # the report names its own CSV path; normalize the per-run out-dir
    # so runs stay comparable byte-for-byte
    report = (out / "sweep_test_report.txt").read_text()
    report = report.replace(str(out), "<out>")
    return (out / "toy_test.csv").read_bytes(), report.encode()


def test_jobs_1_and_4_are_byte_identical(tmp_path, capsys):
    serial = _run(tmp_path, "j1", jobs=1)
    parallel = _run(tmp_path, "j4", jobs=4)
    assert serial == parallel
    text = serial[1].decode()
    assert "infeasible corner" in text  # the failing point is mapped
    assert "knife" in text.lower() or "waf" in text
    capsys.readouterr()  # swallow the report prints


def test_report_contents(tmp_path, capsys):
    _, report = _run(tmp_path, "r", jobs=1)
    text = report.decode()
    out = capsys.readouterr().out
    # stdout mirrors the report file (modulo the normalized CSV path)
    assert text.splitlines()[0] in out
    assert "Bottom " in out
    assert "== Sweep: toy @ test (6 points) ==" in text
    assert "Top " in text and "Bottom " in text
    assert "(5 feasible points, 1 infeasible)" in text
    # the planted a=2->3 waf cliff is flagged
    assert "2->3" in text


def test_sweep_list_and_errors(tmp_path, capsys):
    assert _sweep_main(["--list"]) == 0
    assert "toy: 6 points" in capsys.readouterr().out
    assert _sweep_main(["--grid", "nope", "--out-dir",
                        str(tmp_path)]) == 2
    assert _sweep_main(["--out-dir", str(tmp_path)]) == 2  # no grid
    assert _sweep_main(["--comprehensive", "--jobs", "0",
                        "--out-dir", str(tmp_path)]) == 2


def test_main_routes_sweep_and_tune(tmp_path, capsys, monkeypatch):
    # `python -m repro.bench sweep ...` must reach _sweep_main
    assert main(["sweep", "--list"]) == 0
    assert "toy" in capsys.readouterr().out
    # and `tune` reaches the tuner CLI (unknown workload -> exit 2,
    # proving the subcommand routed rather than argparse-failed)
    assert main(["tune", "--workload", "nope", "--scale", "test"]) == 2


def test_report_file_is_byte_equal_to_stdout(tmp_path, capsys):
    out = tmp_path / "eq"
    argv = ["--grid", "toy", "--scale", "test", "--out-dir", str(out)]
    assert _sweep_main(argv) == 0
    assert (out / "sweep_test_report.txt").read_text() == \
        capsys.readouterr().out
