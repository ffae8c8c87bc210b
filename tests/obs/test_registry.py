"""MetricsRegistry and instrument tests."""
# slimlint: ignore-file[SLIM005] — toy instrument names exercise the
# registry machinery, not the production naming scheme

import pytest

from repro.obs import MetricsRegistry, render_metric_name
from repro.obs.registry import RESERVOIR
from repro.sim import Environment


@pytest.fixture
def reg():
    return MetricsRegistry(Environment(), name="t")


def test_counter_get_or_create_and_inc(reg):
    c = reg.counter("ops_total", op="set")
    assert reg.counter("ops_total", op="set") is c
    c.inc()
    c.inc(3)
    assert c.value == 4
    # different labels -> different instrument
    assert reg.counter("ops_total", op="get") is not c


def test_counter_rejects_negative(reg):
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_kind_mismatch_raises(reg):
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_total_sums_over_labels_and_never_creates(reg):
    reg.counter("cmds_total", ring="a", shard="s0").inc(2)
    reg.counter("cmds_total", ring="b", shard="s0").inc(3)
    reg.counter("cmds_total", ring="a", shard="s1").inc(5)
    assert reg.total("cmds_total") == 10
    assert reg.total("cmds_total", ring="a") == 7
    assert reg.labeled(shard="s0").total("cmds_total") == 5
    before = len(reg.instruments())
    with pytest.raises(KeyError):
        reg.total("cmd_total")  # a misspelt name must not read 0
    with pytest.raises(KeyError):
        reg.total("cmds_total", ring="c")
    assert len(reg.instruments()) == before
    reg.gauge("depth").set(4.0)
    with pytest.raises(TypeError):
        reg.total("depth")


def test_gauge_watermarks(reg):
    g = reg.gauge("depth")
    g.set(5)
    g.set(1)
    g.set(9)
    assert g.value == 9
    assert g.low_water == 1
    assert g.high_water == 9


def test_callback_gauge(reg):
    state = {"v": 1.5}
    g = reg.gauge("live", fn=lambda: state["v"])
    assert g.value == 1.5
    state["v"] = 2.0
    assert g.value == 2.0
    with pytest.raises(ValueError):
        g.set(3.0)


def test_histogram_exact_stats(reg):
    h = reg.histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.total == 10.0
    assert h.min == 1.0
    assert h.max == 4.0
    assert h.mean == 2.5
    s = h.summary()
    assert s["count"] == 4 and s["p50"] == 2.5


def test_histogram_reservoir_bounded_and_deterministic():
    def build():
        r = MetricsRegistry(Environment())
        h = r.histogram("x")
        for i in range(4 * RESERVOIR):
            h.observe(float(i))
        return h

    a, b = build(), build()
    assert len(a.reservoir) == RESERVOIR
    assert a.reservoir != [float(i) for i in range(RESERVOIR)]  # replaced
    assert a.reservoir == b.reservoir  # deterministic per-instrument RNG
    # exact stats unaffected
    assert a.count == 4 * RESERVOIR and a.max == 4 * RESERVOIR - 1.0


def test_empty_histogram_summary(reg):
    h = reg.histogram("empty")
    assert h.summary() == {"count": 0, "sum": 0.0}
    assert h.percentile(50) != h.percentile(50)  # NaN


def test_render_metric_name():
    assert render_metric_name("x", {}) == "x"
    assert render_metric_name("x", {"b": 1, "a": "z"}) == 'x{a="z",b="1"}'


def test_snapshot_keys_and_kinds(reg):
    reg.counter("c", k="v").inc(2)
    reg.gauge("g").set(7)
    reg.histogram("h").observe(0.5)
    snap = reg.snapshot()
    assert snap['c{k="v"}'] == {"kind": "counter", "value": 2}
    assert snap["g"]["kind"] == "gauge" and snap["g"]["value"] == 7
    assert snap["h"]["count"] == 1


def test_event_log(reg):
    reg.event("progress", done=3, total=10)
    assert reg.events == [{"t": 0.0, "name": "progress",
                           "done": 3, "total": 10}]


# ---------------------------------------------------------------------------
# labeled views
# ---------------------------------------------------------------------------

def test_labeled_view_stamps_instruments(reg):
    view = reg.labeled(shard="shard0")
    c = view.counter("ops_total", op="set")
    assert c.labels == {"shard": "shard0", "op": "set"}
    c.inc()
    # the instrument lives in the base registry
    assert c in reg.instruments()
    # same name without the label is a distinct instrument
    assert reg.counter("ops_total", op="set") is not c


def test_labeled_view_call_site_wins(reg):
    view = reg.labeled(shard="shard0")
    c = view.counter("x", shard="override")
    assert c.labels["shard"] == "override"


def test_labeled_view_of_view_collapses(reg):
    inner = reg.labeled(a="1").labeled(b="2")
    assert inner.base is reg
    g = inner.gauge("depth")
    assert g.labels == {"a": "1", "b": "2"}


def test_labeled_view_events_and_spans(reg):
    view = reg.labeled(shard="shard3")
    view.event("reshard_begin", slots=8)
    assert reg.events[-1]["shard"] == "shard3"
    assert reg.events[-1]["name"] == "reshard_begin"


def test_reservoir_reproduces_across_interpreter_hash_seeds():
    """Regression (slimflow SLIM011): the reservoir RNG was seeded from
    builtin ``hash()``, which PYTHONHASHSEED salts per process — two
    identical runs sampled different reservoirs and percentile metrics
    stopped reproducing. The seed must come from a stable digest.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.obs import MetricsRegistry\n"
        "from repro.sim import Environment\n"
        "r = MetricsRegistry(Environment())\n"
        "h = r.histogram('lat', op='get', shard='s1')\n"
        "for i in range(2000):\n"
        "    h.observe(float(i))\n"
        "print(h.reservoir)\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    outs = []
    for hash_seed in ("1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1], (
        "reservoir sampling depends on the interpreter hash seed")
