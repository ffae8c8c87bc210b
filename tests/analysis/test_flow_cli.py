"""slimcheck CLI on the whole-program rules: exit codes, rule
selection, SARIF export.

Every test builds a miniature ``src/repro/<pkg>/`` tree under tmp_path
and chdirs into it, so the CLI sees the same layout as the real repo
(package scoping and default-path discovery both key off it).
"""

import json

import pytest

from repro.analysis.__main__ import main

RACY = """\
class Counter:
    def __init__(self, env):
        self.env = env
        self.value = 0

    def bump(self):
        v = self.value
        yield self.env.timeout(1)
        self.value = v + 1

class App:
    def __init__(self, env):
        self.env = env
        self.counter = Counter(env)

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.counter.bump()

    def writer_b(self):
        yield from self.counter.bump()
"""

CLEAN = """\
def add(a, b):
    return a + b
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A tmp repo layout; returns a writer for src/repro/<relpath>."""
    monkeypatch.chdir(tmp_path)

    def put(relpath, source):
        p = tmp_path / "src" / "repro" / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source, encoding="utf-8")
        return p

    return put


def test_clean_tree_exits_zero(project, capsys):
    project("persist/app.py", CLEAN)
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "slimcheck: 0 findings" in out


def test_findings_without_baseline_exit_one(project, capsys):
    project("persist/app.py", RACY)
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "SLIM010" in out


def test_unknown_rule_code_is_a_usage_error(project, capsys):
    project("persist/app.py", CLEAN)
    assert main(["--select", "SLIM099"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_select_can_mask_a_rule(project):
    project("persist/app.py", RACY)
    assert main(["--ignore", "SLIM010"]) == 0


def test_flow_dispatch_via_module_main(project, capsys):
    project("persist/app.py", CLEAN)
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SLIM010", "SLIM011", "SLIM012"):
        assert code in out


# --------------------------------------------------------------------------
# SARIF
# --------------------------------------------------------------------------

def test_sarif_race_trace_exports_related_locations(project, tmp_path, capsys):
    project("persist/app.py", RACY)
    assert main(["--select", "SLIM010,SLIM011,SLIM012",
                 "--format", "sarif", "--output", "flow.sarif"]) == 1
    doc = json.loads((tmp_path / "flow.sarif").read_text(encoding="utf-8"))
    driver = doc["runs"][0]["tool"]["driver"]
    assert driver["name"] == "slimcheck"
    assert [r["id"] for r in driver["rules"]] == \
        ["SLIM010", "SLIM011", "SLIM012"]
    (res,) = doc["runs"][0]["results"]
    assert res["ruleId"] == "SLIM010"
    related = res["relatedLocations"]
    assert len(related) == 3
    labels = " ".join(loc["message"]["text"] for loc in related)
    assert "read" in labels and "yield" in labels and "write" in labels
    # every related location points back into the same artifact
    uris = {loc["physicalLocation"]["artifactLocation"]["uri"]
            for loc in related}
    assert uris == {res["locations"][0]["physicalLocation"]
                    ["artifactLocation"]["uri"]}


def test_sarif_two_rules_on_one_line(project, tmp_path):
    # an unfenced ack whose reply value is also a tainted RNG draw:
    # SLIM011 and SLIM012 both anchor on the same source line
    project("imdb/app.py", """\
import random

class Server:
    def execute(self, op):
        yield self.cpu.request()
        return encode(repr(random.Random(hash(op)).random()))
""")
    assert main(["--format", "sarif", "--output", "flow.sarif"]) == 1
    doc = json.loads((tmp_path / "flow.sarif").read_text(encoding="utf-8"))
    results = doc["runs"][0]["results"]
    assert sorted(r["ruleId"] for r in results) == ["SLIM011", "SLIM012"]
    lines = {r["locations"][0]["physicalLocation"]["region"]["startLine"]
             for r in results}
    assert lines == {6}

