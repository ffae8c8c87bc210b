"""Scale presets + CLI tests."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.scales import BENCH_SCALE, TEST_SCALE, get_scale


def test_scale_registry():
    assert get_scale("test") is TEST_SCALE
    assert get_scale("bench") is BENCH_SCALE
    with pytest.raises(KeyError):
        get_scale("galactic")


def test_scales_shrink_together():
    t, b = TEST_SCALE, BENCH_SCALE
    assert t.redis_ops <= b.redis_ops
    assert t.small_device_mb < b.small_device_mb
    assert t.wal_trigger_bytes < b.wal_trigger_bytes
    assert t.ycsb_ops <= b.ycsb_ops


def test_system_config_construction():
    for gc in (True, False):
        cfg = TEST_SCALE.system_config(gc_pressure=gc)
        assert cfg.server.wal_snapshot_trigger_bytes == TEST_SCALE.wal_trigger_bytes
    cfg = TEST_SCALE.system_config(gc_pressure=False, trigger=False)
    assert cfg.server.wal_snapshot_trigger_bytes is None


def test_system_config_overrides():
    cfg = TEST_SCALE.system_config(gc_pressure=False, fdp=False, sqpoll=False)
    assert cfg.fdp is False and cfg.sqpoll is False


def test_erase_time_scales_with_block_size():
    nand = TEST_SCALE._nand()
    assert nand.block_erase == pytest.approx(
        2e-3 * TEST_SCALE.pages_per_block / 256)


def test_workload_factories_apply_scale():
    w = TEST_SCALE.redis_bench()
    assert w.total_ops == TEST_SCALE.redis_ops
    assert w.value_size == TEST_SCALE.redis_value
    y = TEST_SCALE.ycsb_a(total_ops=5)
    assert y.total_ops == 5
    assert y.zipfian


def test_cli_list(capsys):
    assert bench_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "table5", "figure4"):
        assert name in out


def test_cli_unknown_experiment(capsys):
    assert bench_main(["tableX"]) == 2


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["sweep", "--grid", "single"],
    ["tune"],
    ["perf"],
], ids=["experiment", "sweep", "tune", "perf"])
def test_cli_unknown_scale_is_a_usage_error(argv, capsys):
    """An unknown preset is bad input (exit 2, one usage line), not a
    ``KeyError`` traceback."""
    with pytest.raises(SystemExit) as exc:
        bench_main(argv + ["--scale", "huge"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'huge'" in err and "Traceback" not in err


def test_cli_runs_one_experiment(capsys):
    assert bench_main(["table5", "--scale", "test"]) == 0
    out = capsys.readouterr().out
    assert "Recovery" in out
    assert "[ok]" in out
