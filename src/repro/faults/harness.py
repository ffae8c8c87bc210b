"""Crash-matrix harness: cut power everywhere, recover, compare.

The strongest crash-consistency check the simulator can run:

1. **Golden run** — replay a fixed workload on a traced
   :class:`~repro.faults.FaultyDevice` to learn every page-write the
   I/O path issues (WAL appends, tail rewrites, snapshot streams,
   metadata A/B updates) in the device-wide page-counter coordinate
   system power cuts are scheduled in.
2. **Matrix** — for each selected cut point, rerun the *same* workload
   (the simulator is deterministic, so the run is identical up to the
   cut), kill power at that page write, harvest the surviving image.
3. **Reboot** — load the image into a fresh device, build a fresh
   system, run §4.2 recovery, and assert:

   * recovery never raises and the offline checker accepts the image;
   * the recovered keyspace equals the state after *some* prefix of
     the issued operations, at least everything acknowledged and at
     most everything started (Always-Log, serial driver: durability
     may lead the ack by exactly the in-flight op, never more, never
     reordered, never invented);
   * **aftershock**: the recovered system keeps working — more writes,
     another clean harvest, a second recovery — pinning the
     recovered-cursor bugs a single recovery pass cannot see.

Every coordinate is deterministic: the same config produces the same
trace, the same cut points, and the same verdicts on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import SlimIOSystem, SystemConfig
from repro.core.verify import verify_lba_space
from repro.faults.injector import ErrorSpec, FaultyDevice, PowerCutSpec
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig
from repro.nvme import NvmeDevice
from repro.persist import LoggingPolicy, SnapshotKind
from repro.sim import Environment

__all__ = [
    "CrashMatrixConfig",
    "CutOutcome",
    "CrashMatrixReport",
    "ErrorLaneResult",
    "build_ops",
    "prefix_states",
    "select_cut_points",
    "run_crash_matrix",
    "run_error_lane",
]


@dataclass(frozen=True)
class CrashMatrixConfig:
    """One matrix campaign: workload shape, cut policy, sim knobs."""

    ops: int = 48
    keys: int = 12
    value_bytes: int = 600
    #: DEL every Nth op (0 disables deletes)
    del_every: int = 4
    #: issue an On-Demand snapshot before this op index (None = never)
    snapshot_at: int | None = 16
    #: WAL-Snapshot trigger, sized to rotate at least once mid-run
    wal_trigger_bytes: int | None = 16 * 1024
    #: "prefix" (in-order programming) or "shuffle" (out-of-order)
    torn: str = "prefix"
    seed: int = 20260807
    #: cap on matrix size; None = cut at every single page write
    max_cuts: int | None = 64
    #: post-recovery writes + second recovery per cut (bug-4 lane)
    aftershock_ops: int = 6
    #: sim-time settle window after the last op (drains async metadata)
    settle: float = 0.01
    device_mb: int = 4
    sanitize: bool = False
    #: causal tracing on every cut run: each kept trace is validated
    #: post-cut (well-formed even when truncated mid-WAL-append)
    trace: bool = False

    def system_config(self) -> SystemConfig:
        """Tiny, fast geometry — the matrix reruns the workload dozens
        of times, so every page counts."""
        return SystemConfig(
            geometry=FlashGeometry(channels=1, dies_per_channel=2,
                                   blocks_per_die=64, pages_per_block=16),
            nand=NandTiming(page_read=2e-6, page_program=5e-6,
                            block_erase=20e-6, channel_transfer=0.5e-6),
            ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3,
                          gc_stop_segments=4, gc_reserve_segments=2),
            policy=LoggingPolicy.ALWAYS,
            server=ServerConfig(
                wal_snapshot_trigger_bytes=self.wal_trigger_bytes,
                snapshot_chunk_entries=8,
            ),
            snapshot_fraction=0.30,
            sanitize=self.sanitize,
        )


@dataclass
class CutOutcome:
    """Verdict for one power-cut point."""

    cut_page: int
    acked: int
    started: int
    matched_prefix: int | None = None
    recovered_keys: int = 0
    wal_tail: str = "clean"
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass
class CrashMatrixReport:
    """Everything one campaign learned."""

    config: CrashMatrixConfig
    total_pages: int = 0
    outcomes: list[CutOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> list[CutOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> dict[str, float]:
        outs = self.outcomes
        return {
            "cuts": float(len(outs)),
            "total_pages": float(self.total_pages),
            "failures": float(len(self.failures)),
            "torn_tails": float(
                sum(1 for o in outs if o.wal_tail != "clean")
            ),
            "mean_recovered_keys": (
                sum(o.recovered_keys for o in outs) / len(outs)
                if outs else 0.0
            ),
            "max_durability_lead": float(
                max(
                    (o.matched_prefix - o.acked for o in outs
                     if o.matched_prefix is not None),
                    default=0,
                )
            ),
        }


@dataclass
class ErrorLaneResult:
    """Verdict of one transient-error campaign."""

    retries: float
    giveups: float
    errors_injected: float
    timeouts_injected: float
    final_state_ok: bool
    recovered_state_ok: bool

    @property
    def ok(self) -> bool:
        return (self.giveups == 0 and self.final_state_ok
                and self.recovered_state_ok)


# ---------------------------------------------------------------------- workload
def build_ops(cfg: CrashMatrixConfig) -> list[ClientOp]:
    """The deterministic op sequence every run replays."""
    ops: list[ClientOp] = []
    for i in range(cfg.ops):
        key = b"k%d" % (i % cfg.keys)
        if cfg.del_every and i % cfg.del_every == cfg.del_every - 1:
            ops.append(ClientOp("DEL", key))
        else:
            val = bytes([(i * 7 + cfg.seed) % 251 or 1]) * cfg.value_bytes
            ops.append(ClientOp("SET", key, val))
    return ops


def prefix_states(ops: list[ClientOp]) -> list[dict[bytes, bytes]]:
    """``states[j]`` = keyspace after the first ``j`` ops."""
    states = [dict()]
    cur: dict[bytes, bytes] = {}
    for op in ops:
        if op.op == "SET":
            cur[op.key] = op.value
        elif op.op == "DEL":
            cur.pop(op.key, None)
        states.append(dict(cur))
    return states


def _make_device(env: Environment, cfg: SystemConfig) -> NvmeDevice:
    """Mirror :class:`SlimIOSystem`'s default device construction, so a
    harness-built device is indistinguishable from an engine-built one."""
    num_pids = cfg.num_pids
    if num_pids is None:
        num_pids = max(8, cfg.placement.max_pid + 1)
    return NvmeDevice(env, cfg.geometry, cfg.nand, cfg.ftl,
                      fdp=cfg.fdp, num_pids=num_pids)


def _driver(system: SlimIOSystem, ops: list[ClientOp],
            progress: dict, snapshot_at: int | None, settle: float):
    """Serial client: one op at a time, Always-Log acks in order."""
    env = system.env
    server = system.server
    for i, op in enumerate(ops):
        if snapshot_at is not None and i == snapshot_at:
            server.start_snapshot(SnapshotKind.ON_DEMAND)
        progress["started"] = i + 1
        yield from server.execute(op)
        progress["acked"] = i + 1
    # wait out any snapshot (incl. its retire_previous), then let
    # trailing async metadata writes land
    while True:
        proc = server._snapshot_proc
        if proc is not None and proc.is_alive:
            yield proc
            continue
        if not server.snapshot_in_progress:
            break
        yield env.timeout(1e-6)
    yield env.timeout(settle)


# ---------------------------------------------------------------------- matrix
def select_cut_points(trace, total_pages: int,
                      max_cuts: int | None) -> list[int]:
    """Pick cut points: exhaustive when it fits the budget, otherwise
    every command boundary first (cut *between* commands — the clean
    cases recovery must nail exactly), then torn interiors of
    multi-page commands, then an even stride over what remains."""
    if max_cuts is None or total_pages <= max_cuts:
        return list(range(total_pages))
    chosen: set[int] = set()
    boundaries: list[int] = []
    interiors: list[int] = []
    for entry in trace:
        if entry.kind != "write":
            continue
        boundaries.append(entry.first_page)
        if entry.nlb > 1:
            interiors.append(entry.first_page + entry.nlb // 2)
            interiors.append(entry.first_page + entry.nlb - 1)
    # interleave so a small budget still gets *both* torn interiors and
    # clean boundaries — either pool alone can exhaust the budget
    pools = [interiors, boundaries]
    while len(chosen) < max_cuts and any(pools):
        for pool in pools:
            if pool and len(chosen) < max_cuts:
                page = pool.pop(0)
                if 0 <= page < total_pages:
                    chosen.add(page)
    stride = max(1, total_pages // max_cuts)
    for page in range(0, total_pages, stride):
        if len(chosen) >= max_cuts:
            break
        chosen.add(page)
    return sorted(chosen)


def _golden_run(cfg: CrashMatrixConfig, sys_cfg: SystemConfig,
                ops: list[ClientOp]):
    """Trace the workload's page writes; returns (trace, total_pages)."""
    env = Environment()
    faulty = FaultyDevice(_make_device(env, sys_cfg), trace=True)
    system = SlimIOSystem(env, sys_cfg, device=faulty)
    progress: dict[str, int] = {"started": 0, "acked": 0}
    done = env.process(
        _driver(system, ops, progress, cfg.snapshot_at, cfg.settle),
        name="crash-driver",
    )
    env.run(until=done)
    system.stop()
    if progress["acked"] != len(ops):
        raise RuntimeError("golden run did not complete the workload")
    return faulty.trace, faulty.pages_seen


def _recover_image(image: dict[int, bytes], sys_cfg: SystemConfig):
    """Boot a fresh system on a crash image; returns
    (system, RecoveryResult)."""
    env = Environment()
    device = _make_device(env, sys_cfg)
    device.load_image(image)
    system = SlimIOSystem(env, sys_cfg, device=device)
    proc = env.process(system.recover(SnapshotKind.WAL_TRIGGERED),
                       name="crash-recovery")
    result = env.run(until=proc)
    return system, result


def _match_prefix(data: dict[bytes, bytes],
                  states: list[dict[bytes, bytes]],
                  lo: int, hi: int) -> int | None:
    """Smallest j in [lo, hi] with ``states[j] == data`` (None = no
    prefix matches — a consistency violation)."""
    for j in range(lo, min(hi, len(states) - 1) + 1):
        if states[j] == data:
            return j
    return None


def _run_one_cut(cfg: CrashMatrixConfig, sys_cfg: SystemConfig,
                 ops: list[ClientOp],
                 states: list[dict[bytes, bytes]],
                 cut_page: int) -> CutOutcome:
    env = Environment()
    spec = PowerCutSpec(at_page_write=cut_page, torn=cfg.torn,
                        seed=cfg.seed + cut_page)
    faulty = FaultyDevice(_make_device(env, sys_cfg), power=spec)
    system = SlimIOSystem(env, sys_cfg, device=faulty)
    tracer = None
    if cfg.trace:
        from repro.obs.wiring import attach_tracer

        # every request traced: a cut can land on any op, and the
        # truncated trace is exactly the forensic artifact we validate
        tracer = attach_tracer(system, sample_every=1)
    progress: dict[str, int] = {"started": 0, "acked": 0}
    done = env.process(
        _driver(system, ops, progress, cfg.snapshot_at, cfg.settle),
        name="crash-driver",
    )
    env.run(until=env.any_of([faulty.cut_event, done]))
    system.stop()
    out = CutOutcome(cut_page=cut_page, acked=progress["acked"],
                     started=progress["started"])
    if tracer is not None:
        from repro.obs.trace import validate_trace

        tracer.drain_open()
        problems = [f"trace {ctx.trace_id}: {p}"
                    for ctx in tracer.kept.values()
                    for p in validate_trace(ctx)]
        if problems:
            out.issues.append(
                f"malformed crash traces: {problems[:3]}"
            )
    if not faulty.power_lost:
        out.issues.append("cut point never reached (driver finished)")
        return out
    image = faulty.inner.image()

    # the crash image itself must pass the offline checker
    check_env = Environment()
    check_dev = _make_device(check_env, sys_cfg)
    check_dev.load_image(image)
    pre = verify_lba_space(
        check_dev, snapshot_fraction=sys_cfg.snapshot_fraction,
        allow_missing_metadata=True,
    )
    if not pre.ok:
        out.issues.append(f"crash image fails verify: {pre.issues}")

    try:
        system2, result = _recover_image(image, sys_cfg)
    except Exception as exc:  # noqa: BLE001 — every failure is a finding
        out.issues.append(f"recovery raised {type(exc).__name__}: {exc}")
        return out
    out.recovered_keys = len(result.data)
    out.wal_tail = result.wal_tail
    out.matched_prefix = _match_prefix(
        result.data, states, out.acked, out.started
    )
    if out.matched_prefix is None:
        out.issues.append(
            f"recovered keyspace matches no op prefix in "
            f"[{out.acked}, {out.started}] "
            f"({len(result.data)} keys recovered)"
        )
        system2.stop()
        return out

    if cfg.aftershock_ops:
        out.issues.extend(
            _aftershock(cfg, sys_cfg, system2, dict(result.data))
        )
    system2.stop()
    return out


def _aftershock(cfg: CrashMatrixConfig, sys_cfg: SystemConfig,
                system2: SlimIOSystem,
                base: dict[bytes, bytes]) -> list[str]:
    """Write through the recovered system, then recover *again*.

    Pins the class of bug where recovery leaves a cursor the next
    writer misuses — e.g. a padding hole after a mid-page tail that
    makes post-recovery appends invisible to the second recovery."""
    env2 = system2.env
    system2.server.store.load(base)
    after_ops = [
        ClientOp("SET", b"k%d" % (i % cfg.keys),
                 bytes([(i * 11 + 3) % 251 or 1]) * cfg.value_bytes)
        for i in range(cfg.aftershock_ops)
    ]
    progress: dict[str, int] = {"started": 0, "acked": 0}
    done = env2.process(
        _driver(system2, after_ops, progress, None, cfg.settle),
        name="aftershock-driver",
    )
    env2.run(until=done)
    if progress["acked"] != len(after_ops):
        return ["aftershock writes did not complete on the recovered system"]
    expected = dict(base)
    for op in after_ops:
        expected[op.key] = op.value
    image2 = system2.device.image()
    try:
        system3, result2 = _recover_image(image2, sys_cfg)
    except Exception as exc:  # noqa: BLE001
        return [f"second recovery raised {type(exc).__name__}: {exc}"]
    system3.stop()
    if result2.data != expected:
        missing = sorted(set(expected) - set(result2.data))
        wrong = sorted(
            k for k in set(expected) & set(result2.data)
            if expected[k] != result2.data[k]
        )
        return [
            f"aftershock state diverged: missing={missing!r} "
            f"wrong={wrong!r} extra="
            f"{sorted(set(result2.data) - set(expected))!r}"
        ]
    return []


def run_crash_matrix(cfg: CrashMatrixConfig | None = None,
                     progress_cb=None) -> CrashMatrixReport:
    """Run one full campaign; returns the report (``report.ok`` is the
    headline verdict). ``progress_cb(i, n, outcome)`` is called after
    each cut for live reporting."""
    cfg = cfg or CrashMatrixConfig()
    sys_cfg = cfg.system_config()
    ops = build_ops(cfg)
    states = prefix_states(ops)
    trace, total_pages = _golden_run(cfg, sys_cfg, ops)
    report = CrashMatrixReport(config=cfg, total_pages=total_pages)
    cuts = select_cut_points(trace, total_pages, cfg.max_cuts)
    for i, cut_page in enumerate(cuts):
        outcome = _run_one_cut(cfg, sys_cfg, ops, states, cut_page)
        report.outcomes.append(outcome)
        if progress_cb is not None:
            progress_cb(i, len(cuts), outcome)
    return report


# ---------------------------------------------------------------------- errors
def run_error_lane(cfg: CrashMatrixConfig | None = None,
                   error_spec: ErrorSpec | None = None) -> ErrorLaneResult:
    """Transient-error campaign: run the workload under seeded NVMe
    errors/timeouts, let the ring's RetryPolicy absorb them, and check
    nothing was lost — in memory or through a clean-image recovery."""
    cfg = cfg or CrashMatrixConfig()
    if error_spec is None:
        # heavy enough that a short workload *will* see failures — the
        # lane must demonstrate retries, not merely tolerate them
        error_spec = ErrorSpec(seed=cfg.seed, write_error_rate=0.05,
                               read_error_rate=0.02)
    sys_cfg = replace(cfg.system_config(), faults=True,
                      fault_seed=cfg.seed)
    env = Environment()
    system = SlimIOSystem(env, sys_cfg)
    injector = system.fault_injector
    injector.errors = error_spec  # FaultyDevice spec is swappable
    injector._rng_errors.seed(error_spec.seed)
    ops = build_ops(cfg)
    states = prefix_states(ops)
    progress: dict[str, int] = {"started": 0, "acked": 0}
    done = env.process(
        _driver(system, ops, progress, cfg.snapshot_at, cfg.settle),
        name="error-lane-driver",
    )
    env.run(until=done)
    system.stop()
    final_ok = (
        progress["acked"] == len(ops)
        and system.server.store.as_dict() == states[-1]
    )
    retries = system.obs.total("uring_retries_total")
    giveups = system.obs.total("uring_retry_giveups_total")
    image = injector.inner.image()
    try:
        # recover on a fault-free config: the campaign under test is the
        # write path, not recovery-under-errors
        system2, result = _recover_image(image, replace(sys_cfg, faults=False))
        system2.stop()
        recovered_ok = result.data == states[-1]
    except Exception:  # noqa: BLE001
        recovered_ok = False
    return ErrorLaneResult(
        retries=retries,
        giveups=giveups,
        errors_injected=system.obs.total("faults_errors_injected_total"),
        timeouts_injected=system.obs.total("faults_timeouts_injected_total"),
        final_state_ok=final_ok,
        recovered_state_ok=recovered_ok,
    )
