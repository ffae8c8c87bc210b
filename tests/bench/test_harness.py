"""The one run path (``repro.bench.harness.run_units``).

Experiments, sweep grid points and tuner evaluations all execute here,
so its contract is tested once: outcomes in input order whatever
``jobs`` is, cache hits indistinguishable from computed payloads,
failures returned as data and never cached, and every success stored
the moment the parent holds it — a later failure cannot discard it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench import cache
from repro.bench.harness import EXPERIMENT_FIELDS, run_units
from repro.bench.scales import TEST_SCALE


def square(n):
    if n == 3:
        raise RuntimeError("three is infeasible")
    return {"n": n, "sq": float(n * n)}


def _cell(n):
    return ("squares", {"n": n})


def _run(args, tmp_path=None, **kw):
    return run_units(square, args, cell=_cell, scale=TEST_SCALE,
                     cache_dir=tmp_path, **kw)


def test_outcomes_follow_input_order_whatever_jobs():
    args = [5, 1, 3, 4, 2]
    serial = _run(args)
    parallel = _run(args, jobs=3)
    assert serial == parallel
    assert [o.value["n"] for o in serial if o.error is None] == [5, 1, 4, 2]
    (failed,) = [o for o in serial if o.error is not None]
    assert failed.value is None
    assert failed.error == "RuntimeError: three is infeasible"
    assert "square" in failed.trace  # the unit's own traceback


def test_hits_replay_and_failures_never_cache(tmp_path):
    calls = []

    def counting(n):
        calls.append(n)
        return square(n)

    first = run_units(counting, [1, 2, 3], cell=_cell, scale=TEST_SCALE,
                      cache_dir=tmp_path)
    assert calls == [1, 2, 3] and not any(o.cached for o in first)
    assert len(list(tmp_path.glob("*.json"))) == 2  # no entry for n=3
    second = run_units(counting, [1, 2, 3], cell=_cell, scale=TEST_SCALE,
                       cache_dir=tmp_path)
    assert calls == [1, 2, 3, 3]  # only the failure re-runs
    assert [o.cached for o in second] == [True, True, False]
    assert [o.value for o in second] == [o.value for o in first]
    refreshed = run_units(counting, [1], cell=_cell, scale=TEST_SCALE,
                          cache_dir=tmp_path, refresh=True)
    assert calls[-1] == 1 and not refreshed[0].cached


def test_each_success_is_stored_before_a_later_unit_runs(tmp_path):
    # a unit that fails (or a run that is killed) after earlier units
    # finished must not cost their results
    seen = []

    def probe(n):
        seen.append(sorted(p.name for p in tmp_path.glob("*.json")))
        return square(n)

    run_units(probe, [1, 2], cell=_cell, scale=TEST_SCALE,
              cache_dir=tmp_path)
    key1 = cache.cache_key("squares", TEST_SCALE, {"n": 1})
    assert seen == [[], [f"{key1}.json"]]


def test_log_and_clock():
    ticks = itertools.count()
    logged = []
    outcomes = _run([1, 2], clock=lambda: float(next(ticks)),
                    log=lambda arg, o: logged.append((arg, o.wall_s)))
    assert logged == [(1, 1.0), (2, 1.0)]
    assert [o.wall_s for o in outcomes] == [1.0, 1.0]


def test_hits_are_logged_first(tmp_path):
    _run([2], tmp_path)
    logged = []
    _run([1, 2], tmp_path, log=lambda arg, o: logged.append((arg, o.cached)))
    assert logged == [(2, True), (1, False)]


def test_fields_reject_a_mistyped_hit(tmp_path):
    key = cache.cache_key("table1", TEST_SCALE)
    cache.store(key, "table1", {"report": 1, "shapes_hold": True}, tmp_path)
    (outcome,) = run_units(
        lambda name: {"report": "fresh", "shapes_hold": True}, ["table1"],
        cell=lambda name: (name, None), scale=TEST_SCALE,
        cache_dir=tmp_path, fields=EXPERIMENT_FIELDS)
    assert not outcome.cached and outcome.value["report"] == "fresh"


def test_invalid_jobs():
    with pytest.raises(ValueError):
        _run([1], jobs=0)


def test_cli_failed_experiment_keeps_the_others_cached(tmp_path, capsys,
                                                        monkeypatch):
    # regression: one raising experiment used to crash the CLI before
    # any finished experiment was cached
    from repro.bench import __main__ as cli
    from repro.bench import experiments

    def broken(scale):
        raise RuntimeError("planted failure")

    monkeypatch.setitem(experiments.EXPERIMENTS, "broken", broken)
    out = tmp_path / "report.txt"
    argv = ["table5", "broken", "--scale", "test", "--out", str(out),
            "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "(broken: failed: RuntimeError: planted failure)" in err
    assert not out.exists()  # no report that silently lacks a table
    assert cli.main(["table5", "--scale", "test", "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "(table5: cache hit)" in capsys.readouterr().err
