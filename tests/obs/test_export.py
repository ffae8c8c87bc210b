"""Exporter tests: JSONL round-trip and reader, Prometheus text,
trace-event export, CLI."""
# slimlint: ignore-file[SLIM005] — toy instrument names exercise the
# exporter machinery, not the production naming scheme

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DumpError,
    MetricsRegistry,
    SpanRecord,
    jsonl_records,
    load_trace_jsonl,
    perfetto_trace,
    prometheus_text,
    read_records,
    summarize_records,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main
from repro.sim import Environment


@pytest.fixture
def reg():
    env = Environment()
    reg = MetricsRegistry(env, name="demo")
    reg.counter("ops_total", op="set").inc(10)
    reg.gauge("depth").set(4)
    h = reg.histogram("lat")
    for v in (0.001, 0.002, 0.004):
        h.observe(v)

    def proc():
        with reg.span("flush", "wal", policy="periodical"):
            yield env.timeout(0.25)
        with reg.span("reclaim", "gc"):
            yield env.timeout(0.1)
        reg.event("progress", done=1)

    env.run(until=env.process(proc()))
    return reg


def test_jsonl_stream_shape(reg):
    recs = list(jsonl_records(reg))
    assert recs[0]["type"] == "meta"
    assert recs[0]["run"] == "demo" and recs[0]["spans"] == 2
    types = [r["type"] for r in recs]
    assert types.count("span") == 2
    assert types.count("event") == 1
    assert types.count("counter") == 1
    assert types.count("gauge") == 1
    assert types.count("histogram") == 1
    span = next(r for r in recs if r["type"] == "span")
    assert span == {"type": "span", "name": "flush", "layer": "wal",
                    "t0": 0.0, "t1": 0.25,
                    "labels": {"policy": "periodical"}}


def test_jsonl_round_trip(reg, tmp_path):
    path = tmp_path / "run.jsonl"
    n = write_jsonl(reg, path)
    with open(path, "rb") as fh:
        loaded = read_records(fh)
    assert len(loaded) == n
    assert loaded == list(jsonl_records(reg))
    # the span lines rebuild the registry's own records
    spans = [SpanRecord.from_dict(r) for r in loaded if r["type"] == "span"]
    assert [s.to_dict() for s in spans] == [s.to_dict() for s in reg.spans]


def test_prometheus_text(reg):
    text = prometheus_text(reg)
    assert '# TYPE ops_total counter' in text
    assert 'ops_total{op="set"} 10.0' in text
    assert "# TYPE depth gauge" in text
    assert "depth 4.0" in text
    assert "# TYPE lat summary" in text
    assert "lat_count 3" in text
    assert 'lat{quantile="0.50"}' in text


def test_perfetto_trace_structure(reg):
    """Registry records with no trace go under pid 0, one thread per
    layer, timestamps in microseconds."""
    trace = perfetto_trace((), overlays=reg.spans, run="demo")
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert len(xs) == 2 and {e["pid"] for e in xs} == {0}
    names = {e["args"]["name"] for e in metas if e["name"] == "thread_name"}
    assert names == {"wal", "gc"}
    flush = next(e for e in xs if e["name"] == "flush")
    assert flush["ts"] == 0.0 and flush["dur"] == 0.25 * 1e6  # microseconds
    assert flush["args"] == {"policy": "periodical"}
    assert trace["displayTimeUnit"] == "ms"
    assert trace["otherData"] == {"run": "demo"}


def test_perfetto_trace_of_a_loaded_run_record(reg, tmp_path):
    """A registry run record loads as overlays and exports like the
    live registry."""
    path = tmp_path / "run.jsonl"
    write_jsonl(reg, path)
    with open(path) as fh:
        meta, contexts, background, overlays = load_trace_jsonl(fh)
    assert meta["run"] == "demo" and contexts == [] and background == []
    assert (perfetto_trace((), overlays=overlays, run="demo")
            == perfetto_trace((), overlays=reg.spans, run="demo"))


def test_summarize_records(reg, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(reg, path)
    with open(path) as fh:
        text = summarize_records(read_records(fh))
    assert "run: demo" in text
    assert "flush" in text and "reclaim" in text
    assert "ops_total" in text
    assert "event log: 1 entries" in text


def test_summary_keeps_one_name_apart_by_layer():
    """A causal-trace dump roots the same command name at two layers
    (net front end, server): one row each, not one row labelled with
    whichever layer came first."""
    def span(layer, t1):
        return {"type": "span", "name": "SET", "layer": layer,
                "t0": 0.0, "t1": t1}

    records = [span("net", 3e-6), span("net", 3e-6), span("server", 1e-6)]
    rows = [line.split() for line in
            summarize_records(records).splitlines()
            if line.split()[:1] == ["SET"]]
    assert sorted(row[:3] for row in rows) == [
        ["SET", "net", "2"], ["SET", "server", "1"]]


def test_cli_summarize_and_trace(reg, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    write_jsonl(reg, path)
    assert obs_main(["summarize", str(path)]) == 0
    assert "run: demo" in capsys.readouterr().out

    out = tmp_path / "run.trace.json"
    assert obs_main(["trace", str(path), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == perfetto_trace((), overlays=reg.spans, run="demo")


def test_cli_summarize_empty_is_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert obs_main(["summarize", str(path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_prometheus_empty_histogram_has_no_nan_quantiles():
    """A never-observed histogram exports count/sum but no NaN
    quantile lines (pin for the empty-reservoir edge)."""
    env = Environment()
    reg = MetricsRegistry(env, name="empty")
    reg.histogram("lat")  # registered, never observed
    text = prometheus_text(reg)
    assert 'lat_count 0' in text
    assert 'lat_sum 0.0' in text
    assert "quantile" not in text
    assert "NaN" not in text


def test_prometheus_nonempty_histogram_keeps_quantiles(reg):
    text = prometheus_text(reg)
    assert 'lat{quantile="0.50"}' in text
    assert 'lat{quantile="0.99"}' in text
    assert "NaN" not in text


def test_summary_faults_and_retries_section():
    """faults_* / uring_retries_total surface as their own forensics
    section in the text summary."""
    env = Environment()
    reg = MetricsRegistry(env, name="faulty")
    reg.counter("faults_errors_injected_total").inc(3)
    reg.counter("uring_retries_total", ring="wal").inc(2)
    reg.counter("uring_retry_giveups_total", ring="wal")
    recs = list(jsonl_records(reg))
    text = summarize_records(recs)
    assert "faults & retries:" in text
    assert "injected events: 3   ring retries: 2   give-ups: 0" in text
    assert "faults_errors_injected_total" in text
    assert 'uring_retries_total{ring="wal"}' in text
    # and the same counters appear in the Prometheus exposition
    prom = prometheus_text(reg)
    assert "faults_errors_injected_total 3" in prom
    assert 'uring_retries_total{ring="wal"} 2' in prom


def test_summary_without_faults_has_no_section(reg):
    assert "faults & retries" not in summarize_records(
        list(jsonl_records(reg)))


# ------------------------------------------------------------ the reader
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
#: a record-shaped object: a known type tag plus fields drawn from the
#: names the schema checks, so the fuzz reaches the field checks
_FIELDS = ["name", "layer", "t0", "t1", "labels", "links", "ok", "bg",
           "trace_id", "span_id", "parent_id", "run", "stream_owners",
           "value", "count", "sum", "t", "tenant", "sampled"]
_RECORD = st.builds(
    lambda kind, fields: {"type": kind, **fields},
    st.sampled_from(["meta", "span", "trace", "event", "counter", "gauge",
                     "histogram", "bogus"]),
    st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=6),
)
_T = st.floats(-1e3, 1e3)
_ID = st.integers(-2, 4)
#: well-formed span and trace lines over a few ids, so loaded dumps
#: reach the report, waterfall and trace-event code
_VALID = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("span"), "layer": st.sampled_from(["wal", "gc", "x"]),
         "name": st.sampled_from(["gc_reclaim", "wal_flush", "SET"]),
         "t0": _T, "t1": st.none() | _T},
        optional={"trace_id": _ID, "span_id": _ID, "parent_id": _ID,
                  "links": st.lists(_ID, max_size=2), "bg": st.booleans(),
                  "labels": st.dictionaries(
                      st.sampled_from(["copied", "stream"]),
                      st.none() | st.integers(-1, 3) | st.text(max_size=2))}),
    st.fixed_dictionaries(
        {"type": st.just("trace"), "trace_id": _ID,
         "name": st.sampled_from(["SET", "GET"]), "t0": _T,
         "t1": st.none() | _T},
        optional={"tenant": st.sampled_from(["a", "b"])}),
    st.just({"type": "meta", "stream_owners": {"1": ["a", "b"]}}),
)
_LINE = st.one_of(
    _JSON.map(json.dumps),
    _RECORD.map(json.dumps),
    _VALID.map(json.dumps),
    st.binary(max_size=24),
    st.text(max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=5))
def test_reader_returns_or_raises_dump_error(lines):
    """Whatever a line holds — any JSON value, a record-shaped object
    with arbitrary field values, raw bytes — the one reader and the
    trace loader on top of it either return or raise DumpError."""
    for load in (read_records, load_trace_jsonl):
        try:
            load(lines)
        except DumpError as e:
            assert str(e).startswith(("line ", "trace "))


def test_reader_names_the_bad_line():
    lines = ['{"type": "meta"}', "", '{"type": "span"}']
    with pytest.raises(DumpError, match=r"^line 3: span record without"):
        read_records(lines)


@pytest.mark.parametrize("line", ['{"type": "trace"}', '{"type": "span"}',
                                  "[1, 2]"], ids=["trace", "span", "list"])
@pytest.mark.parametrize("command", ["summarize", "trace", "report"])
def test_cli_malformed_record_is_one_line_error(tmp_path, capsys, command,
                                                line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "meta", "run": "x"}\n' + line + "\n")
    assert obs_main([command, str(path), *(["-o", str(tmp_path / "o.json")]
                                          if command == "trace" else [])]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 2" in err
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=5)
       | st.lists(_VALID.map(json.dumps), max_size=10), st.sampled_from(
    ["summarize", "trace", "report"]))
def test_cli_never_tracebacks(tmp_path_factory, lines, command):
    """Every command on any dump exits 0 or 1; none raises."""
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "dump.jsonl"
    path.write_bytes(b"\n".join(
        ln if isinstance(ln, bytes) else ln.encode("utf-8", "surrogatepass")
        for ln in lines))
    argv = [command, str(path)]
    if command == "trace":
        argv += ["-o", str(d / "out.json")]
    assert obs_main(argv) in (0, 1)
