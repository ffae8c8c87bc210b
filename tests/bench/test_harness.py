"""The one run path (``repro.bench.harness.run_units``).

Experiments, sweep grid points and tuner evaluations all execute here,
so its contract is tested once: outcomes in input order whatever
``jobs`` is, and failures returned as data — to the CLI, a traceback on
stderr, exit 1 and no partial report.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.harness import run_units


def square(n):
    if n == 3:
        raise RuntimeError("three is infeasible")
    return {"n": n, "sq": float(n * n)}


def test_outcomes_follow_input_order_whatever_jobs():
    args = [5, 1, 3, 4, 2]
    serial = run_units(square, args)
    parallel = run_units(square, args, jobs=3)
    assert serial == parallel
    assert [o.value["n"] for o in serial if o.error is None] == [5, 1, 4, 2]
    (failed,) = [o for o in serial if o.error is not None]
    assert failed.value is None
    assert failed.error == "RuntimeError: three is infeasible"
    assert "square" in failed.trace  # the unit's own traceback


def test_log_and_clock():
    ticks = itertools.count()
    logged = []
    outcomes = run_units(square, [1, 2], clock=lambda: float(next(ticks)),
                         log=lambda arg, o: logged.append((arg, o.wall_s)))
    assert logged == [(1, 1.0), (2, 1.0)]
    assert [o.wall_s for o in outcomes] == [1.0, 1.0]


def test_invalid_jobs():
    with pytest.raises(ValueError):
        run_units(square, [1], jobs=0)


def test_cli_failed_experiment_keeps_the_others_cached(tmp_path, capsys,
                                                        monkeypatch):
    # one raising experiment is reported; the others still run, and no
    # report that silently lacks it is written
    from repro.bench import __main__ as cli
    from repro.bench import experiments

    def broken(scale):
        raise RuntimeError("planted failure")

    monkeypatch.setitem(experiments.EXPERIMENTS, "broken", broken)
    out = tmp_path / "report.txt"
    argv = ["table5", "broken", "--scale", "test", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "(table5: " in err  # the other experiment ran
    assert "Traceback" in err and "in broken" in err
    assert "(broken: failed: RuntimeError: planted failure)" in err
    assert not out.exists()  # no report that silently lacks a table


def test_cli_out_file_is_byte_equal_to_stdout(tmp_path, capsys):
    # CI diffs the --out file against a golden taken from stdout
    from repro.bench import __main__ as cli

    out = tmp_path / "report.txt"
    assert cli.main(["table5", "--scale", "tiny", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
