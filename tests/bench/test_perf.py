"""The event-count gate: the record it writes and how compare grades it."""

import json
import re

import pytest

from repro.bench import perf
from repro.bench.experiments import EXPERIMENTS
from repro.bench.perf import compare_records, main, measure_suite
from repro.bench.scales import TEST_SCALE
from repro.sim import Environment, engine


def _record(events=1000, per_experiment=None, shapes_hold=True,
            dispatched=None):
    exps = per_experiment or {"ycsb": events}
    rows = {name: {"sim_events": ev, "shapes_hold": shapes_hold}
            for name, ev in exps.items()}
    if dispatched is not None:
        for row in rows.values():
            row["sim_dispatched"] = dispatched
    return {
        "scale": "test",
        "experiments": rows,
        "total_sim_events": sum(exps.values()),
    }


class TestCompareRecords:
    def test_identical_records_are_clean(self, capsys):
        assert compare_records(_record(), _record()) == []

    def test_event_growth_beyond_budget_fails(self):
        """Simulated events are deterministic: >5% growth in any one
        experiment is a hard failure."""
        fails = compare_records(_record(events=1000), _record(events=1100))
        assert len(fails) == 1
        assert "deterministic" in fails[0]

    def test_event_growth_within_budget_passes(self, capsys):
        fails = compare_records(_record(events=1000), _record(events=1040))
        assert fails == []
        assert "within 1.05x budget" in capsys.readouterr().out

    def test_dispatch_growth_beyond_budget_fails(self):
        """A dispatch that used to be absorbed (or merged with another)
        and is now dispatched leaves the logical total where it was;
        only the dispatch count shows it."""
        base = _record(events=1000, dispatched=800)
        fails = compare_records(base, _record(events=1000, dispatched=900))
        assert len(fails) == 1
        assert "heap dispatches grew 800 -> 900" in fails[0]
        assert compare_records(base, _record(events=1000,
                                             dispatched=800)) == []

    def test_baseline_without_dispatch_counts_is_noted(self, capsys):
        base = _record(events=1000)
        assert compare_records(base, _record(events=1000,
                                             dispatched=800)) == []
        assert "no sim_dispatched in the baseline" in capsys.readouterr().out

    def test_new_experiment_is_noted_not_failed(self, capsys):
        base = _record(per_experiment={"ycsb": 1000})
        curr = _record(per_experiment={"ycsb": 1000, "tailtrace": 9000})
        assert compare_records(base, curr) == []
        assert "rebaseline" in capsys.readouterr().out


class TestCompareCli:
    def _write(self, tmp_path, name, record):
        p = tmp_path / name
        p.write_text(json.dumps(record))
        return str(p)

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _record(events=1000))
        curr = self._write(tmp_path, "curr.json", _record(events=1200))
        assert main(["--compare", base, curr]) == 1
        assert "::error ::perf-smoke" in capsys.readouterr().out

    def test_shape_miss_in_current_exits_nonzero(self, tmp_path, capsys):
        """Regression: ``shapes_hold`` was recorded and never graded, so
        a shape MISS at the measured scale passed the gate."""
        good = self._write(tmp_path, "good.json", _record())
        miss = self._write(tmp_path, "miss.json", _record(shapes_hold=False))
        assert main(["--compare", good, miss]) == 1
        assert "::error ::perf-smoke: ycsb" in capsys.readouterr().out
        # the baseline's own flag is history, not the grade
        assert main(["--compare", miss, good]) == 0

    def test_missing_baseline_is_skipped_not_failed(self, tmp_path):
        curr = self._write(tmp_path, "curr.json", _record())
        assert main(["--compare", str(tmp_path / "nope.json"), curr]) == 0

    def test_unusable_current_fails_the_gate(self, tmp_path, capsys):
        """Regression: a missing, truncated or hollow CURRENT record was
        swallowed together with a missing baseline and exited 0, so a
        measurement step that crashed passed the CI perf gate."""
        base = self._write(tmp_path, "base.json", _record())
        good = json.dumps(_record())
        hollow = _record()
        hollow["experiments"] = {}
        cases = {
            "missing.json": None,
            "truncated.json": good[: len(good) // 2],
            "empty.json": "",
            "no_suite.json": json.dumps({"description": "x"}),
            "not_a_record.json": "[]",
            "hollow.json": json.dumps(hollow),
        }
        for name, text in cases.items():
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            assert main(["--compare", base, str(path)]) == 1, name
            assert "current record unusable" in capsys.readouterr().out


def test_record_is_byte_deterministic_and_holds_no_host_time(
        tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "EXPERIMENTS", {
        name: EXPERIMENTS[name] for name in ("table5", "crashmatrix")})
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["--scale", "test", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    record = json.loads(texts[0])
    assert set(record["experiments"]) == {"table5", "crashmatrix"}
    assert record["total_sim_events"] == sum(
        e["sim_events"] for e in record["experiments"].values())
    for row in record["experiments"].values():
        assert 0 < row["sim_dispatched"] <= row["sim_events"]
    host_time = re.compile("wall|per_sec|speedup|reference|trajectory|notes")
    keys = re.findall(r'"([^"]+)":', texts[0])
    assert keys and not [k for k in keys if host_time.search(k)]


def test_measure_suite_stops_tracking_when_an_experiment_raises(monkeypatch):
    """Regression: the tracker stayed on after a raising experiment and
    retained every later Environment in the process."""
    def boom(scale):
        Environment()
        raise RuntimeError("experiment failed")

    monkeypatch.setattr(perf, "EXPERIMENTS", {"boom": boom})
    with pytest.raises(RuntimeError, match="experiment failed"):
        measure_suite(TEST_SCALE)
    assert engine._tracked_envs is None
