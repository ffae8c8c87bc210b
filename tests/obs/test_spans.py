"""Span context-manager tests."""

import pytest

from repro.obs import MetricsRegistry
from repro.sim import Environment


def test_span_records_sim_time():
    env = Environment()
    reg = MetricsRegistry(env)

    def proc():
        yield env.timeout(1.0)
        with reg.span("work", "io", kind="x"):
            yield env.timeout(2.5)

    env.run(until=env.process(proc()))
    (rec,) = reg.spans
    assert rec.name == "work" and rec.layer == "io"
    assert rec.t0 == 1.0 and rec.t1 == 3.5
    assert rec.duration == 2.5
    assert rec.labels == {"kind": "x"}
    assert rec.ok


def test_span_log_is_in_completion_order():
    env = Environment()
    reg = MetricsRegistry(env)

    def proc():
        with reg.span("flush", "wal"):
            yield env.timeout(1.0)
            with reg.span("fsync", "wal"):
                yield env.timeout(1.0)

    env.run(until=env.process(proc()))
    assert [(s.name, s.t0, s.t1) for s in reg.spans] == \
        [("fsync", 1.0, 2.0), ("flush", 0.0, 2.0)]


def test_span_exception_propagates_and_marks_not_ok():
    reg = MetricsRegistry(Environment())
    with pytest.raises(RuntimeError):
        with reg.span("bad"):
            raise RuntimeError("boom")
    (rec,) = reg.spans
    assert (rec.name, rec.layer, rec.ok) == ("bad", "main", False)
    assert rec.t0 <= rec.t1


def test_spans_named_filter():
    reg = MetricsRegistry(Environment())
    for name in ("a", "b", "a"):
        with reg.span(name):
            pass
    assert len(reg.spans_named("a")) == 2
    assert len(reg.spans_named("b")) == 1


def test_span_capacity_eviction():
    reg = MetricsRegistry(Environment(), span_capacity=2)
    for i in range(5):
        with reg.span(f"s{i}"):
            pass
    assert len(reg.spans) == 2
    assert reg.spans_dropped == 3
    assert [s.name for s in reg.spans] == ["s3", "s4"]  # oldest evicted
