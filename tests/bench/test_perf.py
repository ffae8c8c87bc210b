"""The perf-regression gate: compare grading and the trajectory log."""

import json

from repro.bench.perf import append_trajectory, compare_records, main


def _record(wall=10.0, events=1000, per_experiment=None):
    exps = per_experiment or {"ycsb": events}
    return {
        "optimized": {
            "scale": "test",
            "experiments": {
                name: {"wall_s": wall, "sim_events": ev}
                for name, ev in exps.items()
            },
            "total_wall_s": wall,
            "total_sim_events": sum(exps.values()),
            "events_per_sec": 100,
        },
    }


class TestCompareRecords:
    def test_identical_records_are_clean(self, capsys):
        warns, fails = compare_records(_record(), _record())
        assert warns == [] and fails == []

    def test_wall_between_warn_and_fail_only_warns(self):
        warns, fails = compare_records(
            _record(wall=10.0), _record(wall=25.0),
            warn_factor=2.0, fail_factor=3.0)
        assert len(warns) == 1 and fails == []

    def test_wall_beyond_fail_factor_fails(self):
        warns, fails = compare_records(
            _record(wall=10.0), _record(wall=40.0),
            warn_factor=2.0, fail_factor=3.0)
        assert warns == []
        assert len(fails) == 1 and "4.00x" in fails[0]

    def test_event_growth_beyond_budget_fails(self):
        """Simulated events are deterministic: >5% growth in any one
        experiment is a hard failure, whatever the wall clock did."""
        warns, fails = compare_records(
            _record(events=1000), _record(events=1100))
        assert len(fails) == 1
        assert "deterministic" in fails[0]

    def test_event_growth_within_budget_passes(self, capsys):
        warns, fails = compare_records(
            _record(events=1000), _record(events=1040))
        assert fails == []
        assert "within 1.05x budget" in capsys.readouterr().out

    def test_new_experiment_is_noted_not_failed(self, capsys):
        base = _record(per_experiment={"ycsb": 1000})
        curr = _record(per_experiment={"ycsb": 1000, "tailtrace": 9000})
        warns, fails = compare_records(base, curr)
        assert fails == []
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

    def test_warn_only_escape_hatch_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _record(events=1000))
        curr = self._write(tmp_path, "curr.json", _record(events=1200))
        assert main(["--compare", base, curr, "--warn-only"]) == 0
        assert "exempted" in capsys.readouterr().out

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
        hollow["optimized"]["experiments"] = {}
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
            # --warn-only exempts a graded breach, not a missing grade
            assert main(["--compare", base, str(path),
                         "--warn-only"]) == 1, name


def test_append_trajectory_accumulates():
    first = append_trajectory({}, _record()["optimized"])
    assert len(first) == 1
    assert first[0]["total_sim_events"] == 1000
    second = append_trajectory(
        {"trajectory": first}, _record(wall=12.0)["optimized"])
    assert len(second) == 2
    assert second[0] == first[0]
    assert second[1]["total_wall_s"] == 12.0
