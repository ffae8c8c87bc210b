"""Parameter sweep utility tests."""

import csv

import pytest

from repro.bench.sweep import (
    GridSpec,
    SweepResult,
    sweep,
    write_csv,
)


def fake_runner(params):
    if params.get("explode"):
        raise RuntimeError("boom")
    return {"score": params["a"] * 10 + params.get("b", 0)}


def test_grid_cartesian_product():
    res = sweep({"a": [1, 2], "b": [0, 5]}, fake_runner)
    assert len(res.rows) == 4
    assert [r["score"] for r in res.rows] == [10, 15, 20, 25]


def test_best_row():
    res = sweep({"a": [1, 3, 2]}, fake_runner)
    assert [r["a"] for r in res.top("score", n=1)] == [3]
    assert [r["a"] for r in res.top("score", n=1, maximize=False)] == [1]
    assert [r["a"] for r in res.top("score")] == [3, 2, 1]


def test_error_skip_records_failure():
    res = sweep({"a": [1], "explode": [False, True]}, fake_runner)
    assert len(res.rows) == 2
    assert "error" in res.rows[1]
    assert "score" not in res.rows[1]


def test_best_skips_error_rows():
    res = sweep({"a": [1, 3], "explode": [False, True]}, fake_runner)
    # errored rows (a=1/3 with explode=True) may not rank even though
    # max() over a mixed dict would have raised KeyError before
    (best,) = res.top("score", n=1)
    assert best["a"] == 3 and best["explode"] is False
    assert all(r["explode"] is False for r in res.top("score", n=10))


def test_best_all_rows_errored():
    res = sweep({"explode": [True, True]}, fake_runner)
    assert res.top("score") == []
    assert res.ok_rows() == []


def test_parallel_jobs_match_serial():
    grid = {"a": [1, 2, 3], "b": [0, 5], "explode": [False, True]}
    serial = sweep(grid, fake_runner)
    parallel = sweep(grid, fake_runner, jobs=3)
    assert parallel.rows == serial.rows  # same content, same order


def test_invalid_jobs():
    with pytest.raises(ValueError):
        sweep({"a": [1]}, fake_runner, jobs=0)


def test_format_and_empty():
    res = sweep({"a": [1]}, fake_runner)
    assert "score" in res.format()
    empty = SweepResult(param_names=[])
    assert empty.format() == "(empty sweep)"
    assert empty.top("score") == []


def test_write_csv(tmp_path):
    res = sweep({"a": [1, 2], "explode": [False]}, fake_runner)
    p = tmp_path / "out.csv"
    write_csv(res, p)
    text = p.read_text()
    assert text.splitlines()[0] == "a,explode,score"
    assert "1,False,10" in text
    with pytest.raises(ValueError):
        write_csv(SweepResult(param_names=[]), p)


# --------------------------------------------------------------------------
# mixed success/error row regressions
# --------------------------------------------------------------------------

def mixed_result() -> SweepResult:
    """A sweep whose grid deliberately includes a failing point."""
    return sweep({"a": [1, 2], "explode": [False, True]}, fake_runner)


def test_mixed_rows_format_does_not_raise():
    # regression: format() took headers from rows[0] and indexed r[h];
    # the first error row raised KeyError and, when rows[0] itself had
    # errored, every measurement column vanished from the table
    res = mixed_result()
    text = res.format()
    assert "score" in text and "error" in text
    assert "boom" in text


def test_mixed_rows_format_error_row_first():
    # worst case of the old bug: rows[0] is the error row, so the old
    # header scrape lost the measurement columns entirely
    res = sweep({"explode": [True, False], "a": [1]}, fake_runner)
    assert "error" in res.rows[0]
    text = res.format()
    assert "score" in text.splitlines()[0]
    assert "error" in text.splitlines()[0]


def test_mixed_rows_headers_union():
    res = mixed_result()
    headers = res.headers()
    assert headers == ["a", "explode", "score", "error"]


def test_mixed_rows_column_blanks():
    # an error row carries no measurement and a success row no error
    res = mixed_result()
    assert [r.get("score") for r in res.rows] == [10, None, 20, None]
    errors = [r.get("error") for r in res.rows]
    assert errors[0] is None and "boom" in errors[1]


def test_mixed_rows_write_csv(tmp_path):
    # regression: heterogeneous rows must CSV as a union of keys with
    # blank missing cells — never a ValueError or shifted columns
    res = mixed_result()
    p = tmp_path / "mixed.csv"
    write_csv(res, p)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert rows[0]["score"] == "10" and rows[0]["error"] == ""
    assert rows[1]["score"] == "" and "boom" in rows[1]["error"]


def test_mixed_rows_best_and_top():
    res = mixed_result()
    assert res.top("score", n=1)[0]["a"] == 2
    top = res.top("score", n=10)
    assert [r["a"] for r in top] == [2, 1]
    assert res.ok_rows() == [res.rows[0], res.rows[2]]


# --------------------------------------------------------------------------
# grid runs
# --------------------------------------------------------------------------

def test_run_grid_skips_infeasible_corners():
    grid = GridSpec(name="g", axes={"a": [1, 2], "explode": [False, True]},
                    runner=fake_runner)
    assert grid.size == 4
    res = sweep(grid.axes, grid.runner)
    assert len(res.rows) == 4
    assert len(res.ok_rows()) == 2


def test_sweep_with_real_system():
    """End-to-end: sweep value sizes on a tiny SlimIO system."""
    from repro import SystemConfig, build_slimio
    from repro.flash import FlashGeometry, FtlConfig, NandTiming
    from repro.workloads import ClosedLoopWorkload

    cfg = SystemConfig(
        geometry=FlashGeometry(channels=1, dies_per_channel=2,
                               blocks_per_die=48, pages_per_block=16),
        nand=NandTiming(page_read=2e-6, page_program=5e-6,
                        block_erase=20e-6, channel_transfer=0.0),
        ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3,
                      gc_stop_segments=4, gc_reserve_segments=2),
        wal_flush_interval=0.01,
    )

    def runner(params):
        system = build_slimio(config=cfg)
        w = ClosedLoopWorkload(clients=4, total_ops=200, key_count=50,
                               value_size=params["value_size"])
        rep = w.run(system)
        system.stop()
        return {"rps": rep.rps, "p999": rep.set_p999}

    res = sweep({"value_size": [256, 2048]}, runner)
    assert len(res.rows) == 2
    assert all(r["rps"] > 0 for r in res.rows)
