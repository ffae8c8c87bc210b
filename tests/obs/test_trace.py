"""Request-level causal tracing: spans, retention, blame, exporters."""

import json
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from repro import LoggingPolicy, SlimIOSystem, SystemConfig, build_slimio
from repro.cluster import ClusterConfig, build_cluster
from repro.faults import ErrorSpec, FaultyDevice
from repro.nvme import NvmeDevice
from repro.obs import MetricsRegistry, SpanRecord, attach_tracer
from repro.obs.trace import (
    Attribution,
    RequestTracer,
    TraceContext,
    attribute_interference,
    critical_path,
    dominant_layer,
    load_trace_jsonl,
    perfetto_trace,
    tail_report,
    trace_jsonl_records,
    validate_trace,
)
from repro.sim import Environment
from repro.workloads import ClusterWorkload, RedisBenchWorkload, YcsbAWorkload

from tests.cluster.conftest import SMALL_SYSTEM


def _workload():
    return RedisBenchWorkload(
        clients=4, total_ops=600, key_count=128, value_size=2048,
        snapshot_at_fraction=0.5,
    )


def _traced_system(**tracer_kw):
    system = build_slimio(
        config=SystemConfig(policy=LoggingPolicy.ALWAYS))
    tracer = attach_tracer(system, **tracer_kw)
    return system, tracer


# ---------------------------------------------------------------- end to end
class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        system, tracer = _traced_system(sample_every=4, keep_slowest=8)
        rep = _workload().run(system)
        system.stop()
        tracer.drain_open()
        return system, tracer, rep

    def test_requests_counted_and_sampled(self, run):
        _, tracer, rep = run
        assert tracer.requests_seen == 600
        # sampling + reservoir keeps a bounded subset
        assert 600 // 4 <= len(tracer.kept) <= 600 // 4 + 8 + 4

    def test_traces_are_well_formed(self, run):
        _, tracer, _ = run
        problems = [p for ctx in tracer.kept.values()
                    for p in validate_trace(ctx)]
        assert problems == []

    def test_set_traces_reach_the_device(self, run):
        _, tracer, _ = run
        sets = [c for c in tracer.kept.values()
                if c.name == "SET" and not c.truncated]
        assert sets
        layers = set()
        names = set()
        for ctx in sets:
            layers.update(s.layer for s in ctx.spans)
            names.update(s.name for s in ctx.spans)
        # ALWAYS policy: the client waits on its WAL append, so the
        # causal chain runs server -> wal -> nvme -> nand in-trace
        assert {"server", "wal", "nvme", "nand"} <= layers
        assert {"wal_commit", "nvme_cmd", "nand_program"} <= names

    def test_tracing_is_pure_observation(self, run):
        """Attaching a tracer changes no simulator behavior: same
        events dispatched, same final sim time, with zero tracer
        events of its own."""
        traced_system, _, _ = run
        plain = build_slimio(
            config=SystemConfig(policy=LoggingPolicy.ALWAYS))
        _workload().run(plain)
        plain.stop()
        assert (plain.env.events_processed
                == traced_system.env.events_processed)
        assert plain.env.now == traced_system.env.now

    def test_jsonl_round_trip(self, run):
        system, tracer, _ = run
        records = trace_jsonl_records(tracer, system.obs.spans, run="unit")
        lines = [json.dumps(r) for r in records]
        meta, contexts, background, overlays = load_trace_jsonl(lines)
        assert meta["run"] == "unit"
        # overlays are the registry records no kept trace or background
        # span holds: those that joined no trace, and those of the
        # requests sampling dropped
        held = {id(s) for c in tracer.kept.values() for s in c.spans}
        held.update(id(s) for s in tracer.background)
        dumped = [s for s in system.obs.spans if id(s) not in held]
        assert any(s.trace_id is None for s in dumped)
        assert any(s.trace_id is not None for s in dumped)
        assert [o.to_dict() for o in overlays] == \
            [d.to_dict() for d in dumped]
        assert all(isinstance(o, SpanRecord) for o in overlays)
        assert len(contexts) == len(tracer.kept)
        assert [s.to_dict() for s in background] == \
            [s.to_dict() for s in tracer.background]
        assert [[s.to_dict() for s in c.spans] for c in contexts] == [
            [s.to_dict() for s in tracer.kept[t].spans]
            for t in sorted(tracer.kept)]

    def test_perfetto_export_shape(self, run):
        system, tracer, _ = run
        doc = perfetto_trace(tracer.kept.values(), tracer.background,
                             system.obs.spans, run="unit")
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X"} <= phases
        # the dump exports what the live tracer and registry export,
        # except that a registry record a kept trace holds is drawn
        # under pid 0 only from the live registry log
        lines = [json.dumps(r) for r in trace_jsonl_records(
            tracer, system.obs.spans, run="unit")]
        meta, contexts, background, overlays = load_trace_jsonl(lines)
        held = {id(s) for c in tracer.kept.values() for s in c.spans}
        held.difference_update(id(s) for s in tracer.background)
        assert held
        unheld = [s for s in system.obs.spans if id(s) not in held]
        assert perfetto_trace(contexts, background, overlays, run="unit") \
            == perfetto_trace(tracer.kept.values(), tracer.background,
                              unheld, run="unit")


def _x_overlaps(doc):
    """``"X"`` slices that start before an earlier slice of the same
    (pid, tid, name) has ended, as exported."""
    by_thread = defaultdict(list)
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            by_thread[(e["pid"], e["tid"], e["name"])].append(
                (e["ts"], e["ts"] + e["dur"]))
    bad = []
    for key, slices in by_thread.items():
        slices.sort()
        end = float("-inf")
        for t0, t1 in slices:
            if t0 < end:
                bad.append((key, t0))
            end = max(end, t1)
    return bad


def _two_shard_always_log_run():
    """A traced two-shard SlimIO cluster run under Always-Log."""
    cl = build_cluster(config=ClusterConfig(
        num_shards=2, design="slimio",
        system=replace(SMALL_SYSTEM, policy=LoggingPolicy.ALWAYS)))
    tracer = cl.attach_tracer(sample_every=4, keep_slowest=8)
    ClusterWorkload(YcsbAWorkload(clients=8, total_ops=1500, key_count=200,
                                  value_size=1024)).run(cl)
    cl.stop()
    tracer.drain_open()
    return cl, tracer


def test_perfetto_cluster_slices_never_overlap():
    """Two shards flush their WALs concurrently under pid 0, and each
    linked flush is both a registry record and a background span: each
    is exported once there, and no two slices of one name overlap on
    one thread."""
    cl, tracer = _two_shard_always_log_run()
    registry = cl.obs.spans
    doc = perfetto_trace(tracer.kept.values(), tracer.background, registry,
                         run="unit")
    assert _x_overlaps(doc) == []
    # each registry flush once under pid 0, matched by its interval
    flushes = sorted((e["ts"], e["dur"]) for e in doc["traceEvents"]
                     if e["ph"] == "X" and e["pid"] == 0
                     and e["name"] == "wal_flush")
    assert any(s.name == "wal_flush" for s in tracer.background)
    assert flushes == sorted((s.t0 * 1e6, max(s.duration * 1e6, 0.001))
                             for s in registry if s.name == "wal_flush")
    # every flow lands on the thread that carries its flush slice
    slices = {(e["tid"], e["ts"]) for e in doc["traceEvents"]
              if e["ph"] == "X" and e["pid"] == 0}
    ends = [e for e in doc["traceEvents"] if e["ph"] == "f"]
    assert ends and all((e["tid"], e["ts"]) in slices for e in ends)


def test_wal_flush_links_stay_on_their_own_shard():
    """Each shard's WAL numbers its records from 1, so the staged-record
    notes are kept per WAL: a flush links exactly the requests whose
    records it retires, never another shard's (one shared list let a
    drain take the other WAL's notes and leave its own flush unlinked)."""
    cl, tracer = _two_shard_always_log_run()
    flushes = [s for s in cl.obs.spans if s.name == "wal_flush"]
    assert flushes
    # Always-Log: every staged record comes from a traced request
    assert all(s.links for s in flushes)
    linked = [(s.labels["shard"], tracer.kept[t].tenant)
              for s in flushes for t in s.links if t in tracer.kept]
    assert linked
    assert all(shard == tenant for shard, tenant in linked)


# ---------------------------------------------------------------- booked once
#: regions the registry brackets that also join request traces
_JOINED = ("wal_flush", "wal_fsync", "uring_retry")


def _slimio_run(traced: bool, policy=LoggingPolicy.PERIODICAL,
                error_rate=0.0):
    """A SlimIO run whose Periodical flusher syncs every 0.5 ms; with
    ``error_rate``, seeded NVMe write errors make the ring retry."""
    cfg = SystemConfig(policy=policy, wal_flush_interval=5e-4)
    if error_rate:
        # device and injector book into the system's registry, as a
        # device the system builds does
        env = Environment()
        obs = MetricsRegistry(env, name="slimio")
        device = NvmeDevice(env, cfg.geometry, cfg.nand, cfg.ftl, fdp=True,
                            obs=obs)
        faulty = FaultyDevice(device, obs=obs, errors=ErrorSpec(
            seed=7, write_error_rate=error_rate))
        system = SlimIOSystem(env, cfg, device=faulty, obs=obs)
    else:
        system = build_slimio(config=cfg)
    tracer = attach_tracer(system, sample_every=4) if traced else None
    RedisBenchWorkload(clients=4, total_ops=2000, key_count=128,
                       value_size=2048).run(system)
    system.stop()
    return system.obs, tracer


def _always_errors_run(traced: bool):
    return _slimio_run(traced, LoggingPolicy.ALWAYS, error_rate=0.05)


def _cluster_run(traced: bool):
    cl = build_cluster(config=ClusterConfig(
        num_shards=2, design="slimio",
        system=replace(SMALL_SYSTEM, policy=LoggingPolicy.ALWAYS)))
    tracer = cl.attach_tracer(sample_every=4, keep_slowest=8) \
        if traced else None
    ClusterWorkload(YcsbAWorkload(clients=8, total_ops=1000, key_count=200,
                                  value_size=1024)).run(cl)
    cl.stop()
    return cl.obs, tracer


@pytest.mark.parametrize("run", [_slimio_run, _cluster_run,
                                 _always_errors_run],
                         ids=["periodical", "cluster", "always-errors"])
def test_registry_regions_are_booked_once(run):
    """A traced run holds each WAL flush/fsync and ring retry once: the
    closed spans its traces and background buffer carry are the
    registry's own records, and the registry books what an untraced run
    books. (A region the run stopped inside stays open, unbooked.)"""
    obs, tracer = run(traced=True)
    registry = {id(s) for s in obs.spans}
    traced = [s for ctx in tracer.kept.values() for s in ctx.spans]
    traced += tracer.background
    joined = [s for s in traced if s.name in _JOINED and s.t1 is not None]
    assert {"wal_flush", "wal_fsync"} <= {s.name for s in joined}
    if run is _always_errors_run:
        assert "uring_retry" in {s.name for s in joined}
    assert all(id(s) in registry for s in joined)
    plain, _ = run(traced=False)
    assert Counter(s.name for s in obs.spans) == \
        Counter(s.name for s in plain.spans)


def test_ring_retries_join_the_command_trace():
    """A retry inside a traced request's NVMe command is a child of that
    command on the nvme layer, and the registry's record itself."""
    obs, tracer = _always_errors_run(traced=True)
    registry = {id(s) for s in obs.spans_named("uring_retry")}
    for ctx in tracer.kept.values():
        by_id = {s.span_id: s for s in ctx.spans}
        for s in ctx.spans:
            if s.name == "uring_retry":
                assert id(s) in registry and s.layer == "nvme"
                assert by_id[s.parent_id].name == "nvme_cmd"
                registry.discard(id(s))
    # some retries served unkept requests: booked in the registry only
    assert 0 < len(registry) < len(obs.spans_named("uring_retry"))


def test_background_buffer_holds_each_span_once():
    """A linked flush enters the background buffer when it opens; its
    drain's finish must not append it again."""
    _, tracer = _slimio_run(traced=True)
    tracer.drain_open()   # the flusher stopped inside an fsync
    assert any(s.links for s in tracer.background)
    assert any(s.labels.get("truncated") for s in tracer.background)
    assert len({id(s) for s in tracer.background}) == len(tracer.background)


# ---------------------------------------------------------------- retention
def _drive(env, gen):
    p = env.process(gen)
    env.run(until=p)


class TestRetention:
    def test_keep_slowest_reservoir(self):
        env = Environment()
        tracer = RequestTracer(env, sample_every=1000, keep_slowest=3)

        def gen():
            for i in range(20):
                ctx = tracer.start_request("GET")
                # request i takes i microseconds: slowest are 17,18,19
                yield env.timeout(i * 1e-6)
                tracer.finish_request(ctx)

        _drive(env, gen())
        assert tracer.requests_seen == 20
        durs = sorted(round(c.duration * 1e6) for c in
                      tracer.kept.values())
        assert durs == [17, 18, 19]
        assert tracer.requests_dropped == 17

    def test_head_sampling_is_unconditional(self):
        env = Environment()
        tracer = RequestTracer(env, sample_every=5, keep_slowest=2)

        def gen():
            for i in range(20):
                ctx = tracer.start_request("GET")
                yield env.timeout((20 - i) * 1e-6)  # early ones slowest
                tracer.finish_request(ctx)

        _drive(env, gen())
        sampled = {tid for tid, c in tracer.kept.items() if c.sampled}
        assert sampled == {5, 10, 15, 20}

    def test_drain_open_truncates_and_keeps(self):
        env = Environment()
        tracer = RequestTracer(env, sample_every=1000, keep_slowest=1)

        def gen():
            ctx = tracer.start_request("SET", tenant="shard0")
            tracer.open_span("wal_commit", "wal")
            yield env.timeout(1e-6)
            # power cut: nothing ever finishes
            drained = tracer.drain_open()
            assert drained == [ctx]

        _drive(env, gen())
        (ctx,) = tracer.kept.values()
        assert ctx.truncated
        assert validate_trace(ctx) == []
        assert all(s.t1 is not None for s in ctx.spans)
        assert any(s.labels.get("truncated") for s in ctx.spans)


# ---------------------------------------------------------------- analysis
def _span(tid, sid, parent, name, layer, t0, t1, **labels):
    return SpanRecord(name, layer, t0, t1, labels, trace_id=tid,
                      span_id=sid, parent_id=parent)


def _ctx(tid, spans, tenant="a", name="SET"):
    ctx = TraceContext(tid, name, tenant, spans[0].t0)
    ctx.t1 = spans[0].t1
    ctx.spans.extend(spans)
    return ctx


class TestAnalysis:
    def test_critical_path_and_dominant_layer(self):
        spans = [
            _span(1, 1, None, "SET", "server", 0.0, 10.0),
            _span(1, 2, 1, "wal_commit", "wal", 2.0, 9.0),
            _span(1, 3, 2, "nand_program", "nand", 3.0, 8.0),
        ]
        layer, t = dominant_layer(spans)
        assert (layer, t) == ("nand", 5.0)
        segments = {(s.name, a, b) for s, a, b in critical_path(spans)}
        assert ("nand_program", 3.0, 8.0) in segments
        assert ("SET", 0.0, 2.0) in segments
        # total critical path covers the root exactly once
        assert sum(b - a for _, a, b in critical_path(spans)) == 10.0

    def test_direct_blame_cross_tenant(self):
        ctx = _ctx(1, [
            _span(1, 1, None, "SET", "server", 0.0, 10.0),
            _span(1, 2, 1, "nvme_cmd", "nvme", 4.0, 9.0),
        ])
        gc = [SpanRecord("gc_reclaim", "gc", 5.0, 8.0,
                          {"stream": 3, "copied": 12})]
        att = attribute_interference(
            ctx, gc, stream_owners={3: {"a", "b"}})
        assert att.blamed and att.cross_tenant
        assert att.via == "direct"
        assert att.overlap == 3.0
        assert att.owners == ("a", "b")

    def test_copy_free_gc_is_never_blamed(self):
        ctx = _ctx(1, [
            _span(1, 1, None, "SET", "server", 0.0, 10.0),
            _span(1, 2, 1, "nvme_cmd", "nvme", 4.0, 9.0),
        ])
        gc = [SpanRecord("gc_reclaim", "gc", 5.0, 8.0,
                          {"stream": 3, "copied": 0})]
        att = attribute_interference(ctx, gc, stream_owners={3: {"b"}})
        assert not att.blamed

    def test_own_stream_blame_is_not_cross_tenant(self):
        ctx = _ctx(1, [
            _span(1, 1, None, "SET", "server", 0.0, 10.0),
            _span(1, 2, 1, "nvme_cmd", "nvme", 4.0, 9.0),
        ])
        gc = [SpanRecord("gc_reclaim", "gc", 5.0, 8.0,
                          {"stream": 3, "copied": 7})]
        att = attribute_interference(ctx, gc, stream_owners={3: {"a"}})
        assert att.blamed and not att.cross_tenant

    def test_group_commit_blame_via_links(self):
        """A request with no device spans of its own is blamed through
        the wal_flush that retired it (background buffer)."""
        ctx = _ctx(7, [_span(7, 1, None, "SET", "server", 0.0, 2.0)])
        flush = SpanRecord("wal_flush", "wal", 5.0, 10.0, trace_id=-1,
                           span_id=9, links=(7,))
        flush_io = _span(-1, 10, 9, "nvme_cmd", "nvme", 6.0, 9.0)
        gc = [SpanRecord("gc_reclaim", "gc", 6.5, 8.5,
                          {"stream": 1, "copied": 4})]
        att = attribute_interference(
            ctx, gc, background=[flush, flush_io],
            stream_owners={1: {"a", "b"}})
        assert att.blamed and att.cross_tenant
        assert att.via == "link"

    def test_tail_report_ranks_by_duration(self):
        ctxs = [
            _ctx(1, [_span(1, 1, None, "SET", "server", 0.0, 1.0)]),
            _ctx(2, [_span(2, 2, None, "SET", "server", 0.0, 5.0)]),
            _ctx(3, [_span(3, 3, None, "GET", "server", 0.0, 3.0)]),
        ]
        rep = tail_report(ctxs, top_k=2, requests_seen=3)
        assert [r.ctx.trace_id for r in rep.rows] == [2, 3]
        assert rep.kept == 3

    def test_attribution_defaults(self):
        assert not Attribution().blamed


# ---------------------------------------------------------------- CLI
def test_report_cli(tmp_path, capsys):
    from repro.obs import write_trace_jsonl
    from repro.obs.__main__ import main as obs_main

    system, tracer = _traced_system(sample_every=4, keep_slowest=8)
    _workload().run(system)
    system.stop()
    tracer.drain_open()
    path = tmp_path / "run.trace.jsonl"
    write_trace_jsonl(path, tracer, run="unit")
    assert obs_main(["report", str(path), "-k", "4", "-w", "1"]) == 0
    out = capsys.readouterr().out
    assert "tail forensics" in out
    assert "trace " in out  # at least one waterfall rendered


def test_report_cli_empty_dump_is_error(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main

    path = tmp_path / "empty.trace.jsonl"
    path.write_text('{"type": "meta", "run": "x"}\n')
    assert obs_main(["report", str(path)]) == 1
    assert "no traces" in capsys.readouterr().err
