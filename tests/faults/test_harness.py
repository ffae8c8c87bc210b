"""Crash-matrix harness regression lanes.

Small deterministic campaigns that must stay green: every power cut
recovers to an acked prefix (both torn models), and the transient-error
lane shows real retries with zero giveups and zero data loss.
"""

import pytest

from repro.faults.harness import (
    CrashMatrixConfig,
    _golden_run,
    build_ops,
    prefix_states,
    run_crash_matrix,
    run_error_lane,
    select_cut_points,
)
from repro.faults.injector import TraceEntry

#: tiny campaign shared by the torn-mode lanes; rotates the WAL at
#: least once (18 ops x ~600B > 8 KiB trigger) and tears a snapshot
SMALL = dict(ops=18, keys=6, snapshot_at=6, wal_trigger_bytes=8 * 1024,
             max_cuts=10, aftershock_ops=4)


def test_build_ops_and_prefix_states_deterministic():
    cfg = CrashMatrixConfig(ops=12)
    a, b = build_ops(cfg), build_ops(cfg)
    assert a == b
    states = prefix_states(a)
    assert len(states) == 13
    assert states[0] == {}
    for j, op in enumerate(a):  # every DEL removes the key it targets
        if op.op == "DEL":
            assert op.key not in states[j + 1]


def test_select_cut_points_exhaustive_when_budget_allows():
    assert select_cut_points([], 5, None) == [0, 1, 2, 3, 4]
    assert select_cut_points([], 5, 8) == [0, 1, 2, 3, 4]


def test_select_cut_points_mixes_interiors_and_boundaries():
    trace = [TraceEntry("write", i, i, i, 1) for i in range(10)]
    trace.append(TraceEntry("write", 10, 10, 100, 6))
    cuts = select_cut_points(trace, 16, 6)
    assert len(cuts) == 6
    assert 13 in cuts  # mid-interior of the 6-page command
    assert 15 in cuts  # its last page
    assert any(c in cuts for c in range(10))  # and command boundaries


@pytest.mark.parametrize("torn", ["prefix", "shuffle"])
def test_crash_matrix_small_campaign_passes(torn):
    cfg = CrashMatrixConfig(torn=torn, **SMALL)
    report = run_crash_matrix(cfg)
    assert report.ok, [o.issues for o in report.failures]
    assert len(report.outcomes) == SMALL["max_cuts"]
    s = report.summary()
    assert s["torn_tails"] >= 1  # torn interiors were actually exercised
    # serial Always-Log driver: durability leads the ack by at most the
    # single in-flight op
    assert s["max_durability_lead"] <= 1


def test_crash_matrix_sanitized_lane():
    """Runtime sanitizers stay quiet across recovery + aftershock: the
    restored partial WAL tail page is a legal rewrite target, not a
    monotonicity violation (SanitizerError would fail the cut)."""
    cfg = CrashMatrixConfig(ops=12, keys=5, snapshot_at=4, max_cuts=4,
                            aftershock_ops=4, sanitize=True)
    report = run_crash_matrix(cfg)
    assert report.ok, [o.issues for o in report.failures]


def test_golden_run_trace_is_deterministic():
    cfg = CrashMatrixConfig(ops=12, keys=5, snapshot_at=4)
    sys_cfg = cfg.system_config()
    ops = build_ops(cfg)
    trace1, pages1 = _golden_run(cfg, sys_cfg, ops)
    trace2, pages2 = _golden_run(cfg, sys_cfg, ops)
    assert pages1 == pages2
    assert trace1 == trace2


def test_error_lane_retries_and_loses_nothing():
    lane = run_error_lane(CrashMatrixConfig(ops=30))
    assert lane.ok
    assert lane.errors_injected + lane.timeouts_injected > 0
    assert lane.retries > 0  # the ring demonstrably absorbed failures
    assert lane.giveups == 0
    assert lane.final_state_ok and lane.recovered_state_ok


# ------------------------------------------------------------ causal tracing
def test_crash_matrix_clean_with_tracing_enabled():
    """Tracing every request changes no verdict: the matrix stays
    green and every harvested trace validates (satellite of the
    tail-forensics work)."""
    cfg = CrashMatrixConfig(ops=12, keys=5, snapshot_at=4, max_cuts=6,
                            aftershock_ops=2, trace=True)
    report = run_crash_matrix(cfg)
    assert report.ok, [o.issues for o in report.failures]


def test_power_cut_mid_wal_append_yields_truncated_trace():
    """A cut landing inside a WAL append leaves a well-formed trace:
    every span closed at cut time, the in-flight wal_commit marked
    failed + truncated."""
    from repro.core import SlimIOSystem
    from repro.faults.harness import _driver, _make_device
    from repro.faults.injector import FaultyDevice, PowerCutSpec
    from repro.obs import attach_tracer
    from repro.obs.trace import validate_trace
    from repro.sim import Environment

    cfg = CrashMatrixConfig(ops=18, keys=6, snapshot_at=None,
                            wal_trigger_bytes=8 * 1024)
    sys_cfg = cfg.system_config()
    ops = build_ops(cfg)
    trace, _ = _golden_run(cfg, sys_cfg, ops)
    # a later page write: by then the driver is mid-run, inside the
    # wal_commit of whichever op the cut interrupts
    writes = [e for e in trace if e.kind == "write"]
    cut = writes[len(writes) // 2].first_page

    env = Environment()
    faulty = FaultyDevice(
        _make_device(env, sys_cfg),
        power=PowerCutSpec(at_page_write=cut, torn="prefix",
                           seed=cfg.seed),
    )
    system = SlimIOSystem(env, sys_cfg, device=faulty)
    tracer = attach_tracer(system, sample_every=1)
    progress = {"started": 0, "acked": 0}
    done = env.process(
        _driver(system, ops, progress, None, cfg.settle),
        name="crash-driver",
    )
    env.run(until=env.any_of([faulty.cut_event, done]))
    system.stop()
    assert faulty.power_lost
    drained = tracer.drain_open()
    assert drained, "the cut should interrupt an in-flight request"

    for ctx in tracer.kept.values():
        assert validate_trace(ctx) == []
    truncated = [c for c in tracer.kept.values() if c.truncated
                 and not c.background]
    assert truncated
    victim = truncated[0]
    cut_spans = [s for s in victim.spans
                 if s.labels.get("truncated") and not s.ok]
    assert cut_spans
    assert any(s.layer == "wal" for s in victim.spans)
