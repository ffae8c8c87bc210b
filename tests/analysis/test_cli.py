"""slimcheck CLI: exit codes, output formats, and the acceptance gate
that the shipped tree itself checks clean."""

import json
from pathlib import Path

from repro.analysis.__main__ import main

REPO = Path(__file__).resolve().parents[2]

CLEAN = "from repro.kernel import iouring\n"
DIRTY = ("import time\n"
         "def f(device, cmd):\n"
         "    t = time.time()\n"
         "    yield from device.submit(cmd)\n")


def _write(tmp_path: Path, source: str) -> Path:
    # park the module under a repro package dir so scoping kicks in
    mod = tmp_path / "src" / "repro" / "imdb" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(source)
    return mod


def test_clean_file_exits_zero(tmp_path, capsys):
    mod = _write(tmp_path, CLEAN)
    assert main([str(mod)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_violations_exit_one(tmp_path, capsys):
    mod = _write(tmp_path, DIRTY)
    assert main([str(mod)]) == 1
    out = capsys.readouterr().out
    assert "SLIM001" in out and "SLIM003" in out


def test_unknown_rule_code_is_usage_error(tmp_path):
    mod = _write(tmp_path, CLEAN)
    assert main([str(mod), "--select", "SLIM999"]) == 2


def test_select_narrows_rules(tmp_path, capsys):
    mod = _write(tmp_path, DIRTY)
    assert main([str(mod), "--select", "SLIM003"]) == 1
    out = capsys.readouterr().out
    assert "SLIM003" in out and "SLIM001" not in out


def test_sarif_format(tmp_path, capsys):
    mod = _write(tmp_path, DIRTY)
    assert main([str(mod), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "slimcheck"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SLIM001", "SLIM003"} <= rule_ids
    assert {r["ruleId"] for r in run["results"]} == {"SLIM001", "SLIM003"}


def test_output_file(tmp_path, capsys):
    mod = _write(tmp_path, DIRTY)
    report = tmp_path / "out" / "report.sarif"
    assert main([str(mod), "--format", "sarif",
                 "--output", str(report)]) == 1
    assert json.loads(report.read_text())["version"] == "2.1.0"


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SLIM001", "SLIM008"):
        assert code in out


def test_shipped_tree_is_clean(capsys):
    """Acceptance gate: ``python -m repro.analysis src`` exits 0."""
    assert main([str(REPO / "src")]) == 0
