"""Request-level causal tracing and tail-latency forensics.

Aggregate telemetry (PR 1) shows *that* p999 moved; this module shows
*why*.  Every client op gets a :class:`TraceContext` whose id follows
the request through server -> WAL append -> io_uring submit/complete ->
pagecache writeback -> NVMe command -> NAND program, as a tree of
:class:`~repro.obs.spans.SpanRecord` with parent/child links and
sim-clock timestamps.

Three problems make this harder than thread-local context:

* **Processes, not threads.**  The simulator multiplexes thousands of
  generator processes on one OS thread, so "current request" must be
  tracked per :class:`~repro.sim.engine.Process`.  The engine sets
  ``env.active_process`` on *every* resume path (including the
  inline resume), so a plain dict keyed by the active process is
  exact.
* **Cross-process handoffs.**  ``ring.submit()`` runs in the caller's
  process but the command is serviced by a fresh ``-svc`` process.
  The caller :meth:`RequestTracer.capture`\\ s its scope and the service
  process :meth:`RequestTracer.adopt`\\ s it.
* **Group commit.**  Under Periodical logging the WAL drain runs in a
  background flusher process and retires *many* staged requests at
  once.  The drain runs under an anonymous *background* context and
  its ``wal_flush`` span carries causal ``links`` to every trace id it
  made durable; linked spans are additionally recorded to a bounded
  background buffer so blame analysis works even when the flushing
  process served no (kept) request of its own.

Regions the registry brackets (``wal_flush``, ``wal_fsync``,
``uring_retry``, ...) are booked there once: the registry hands each
span to :meth:`RequestTracer.join`, which gives it ids when the running
process carries a trace. Only per-request spans are created here.

Retention is head sampling (1-in-N) plus an always-keep-slowest
reservoir, so traced runs stay cheap and the p999 stories are never
sampled away.  Tracing off (``rtrace is None`` everywhere) does
no work and creates zero simulator events.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.obs.export import DumpError, read_records, write_records
from repro.obs.spans import SpanRecord

__all__ = ["TraceContext", "RequestTracer", "Attribution", "TailRow",
           "TailReport", "critical_path", "dominant_layer",
           "attribute_interference", "tail_report", "validate_trace",
           "format_waterfall", "format_tail_table", "trace_jsonl_records",
           "write_trace_jsonl", "load_trace_jsonl", "perfetto_trace"]

#: render/export order of the layers a request crosses, top to bottom
LAYERS = ("net", "server", "wal", "pagecache", "nvme", "ftl", "nand")

_DEVICE_LAYERS = frozenset(("nvme", "ftl", "nand"))


class TraceContext:
    """One request's (or one background activity's) trace."""

    __slots__ = ("trace_id", "name", "tenant", "t0", "t1", "spans",
                 "sampled", "background", "truncated")

    def __init__(self, trace_id, name, tenant="", t0=0.0,
                 sampled=False, background=False):
        self.trace_id = trace_id
        self.name = name
        self.tenant = tenant
        self.t0 = t0
        self.t1 = None
        self.spans: list[SpanRecord] = []
        self.sampled = sampled
        self.background = background
        self.truncated = False

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def root(self) -> SpanRecord | None:
        for s in self.spans:
            if s.parent_id is None:
                return s
        return None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id, "name": self.name,
            "tenant": self.tenant, "t0": self.t0, "t1": self.t1,
            "sampled": self.sampled, "truncated": self.truncated,
        }


class _Scope:
    """Per-process binding: the active context + open-span stack."""

    __slots__ = ("ctx", "stack")

    def __init__(self, ctx: TraceContext, stack: list[int]):
        self.ctx = ctx
        self.stack = stack


class RequestTracer:
    """Collects causal traces; creates **zero** simulator events.

    ``sample_every``: head sampling, keep every Nth request in full.
    ``keep_slowest``: on top of sampling, a reservoir of the K slowest
    requests seen so far (the tail-forensics working set).
    """

    def __init__(self, env, sample_every: int = 8, keep_slowest: int = 32,
                 background_capacity: int = 4096):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.env = env
        self.sample_every = sample_every
        self.keep_slowest = keep_slowest
        self.requests_seen = 0
        self.requests_dropped = 0
        #: kept traces by id (sampled + slowest reservoir + truncated)
        self.kept: dict[int, TraceContext] = {}
        #: flat spans from background contexts and every linked span,
        #: each held once
        self.background: deque[SpanRecord] = deque(
            maxlen=background_capacity)
        self._scopes: dict[object, _Scope] = {}
        self._slow: list[tuple[float, int]] = []   # (duration, trace_id) min-heap
        self._span_seq = 0
        self._bg_seq = 0
        #: per WAL: (seq, trace id) notes of records not yet retired
        self._staged_wal: dict[object, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------ scope
    def _scope(self) -> _Scope | None:
        return self._scopes.get(self.env.active_process)

    def current(self) -> TraceContext | None:
        """The context bound to the running process, if any."""
        sc = self._scope()
        return sc.ctx if sc is not None else None

    def _open(self, ctx: TraceContext, layer: str,
              labels: dict) -> TraceContext:
        """Bind ``ctx`` and its root span to the running process."""
        self._span_seq += 1
        root = SpanRecord(ctx.name, layer, ctx.t0, labels=labels,
                          trace_id=ctx.trace_id, span_id=self._span_seq)
        ctx.spans.append(root)
        self._scopes[self.env.active_process] = _Scope(ctx, [root.span_id])
        return ctx

    def _close(self, ctx: TraceContext, ok: bool = True) -> None:
        """End ``ctx`` and its root span now; unbind the process."""
        now = self.env.now
        ctx.t1 = now
        root = ctx.root
        if root is not None and root.t1 is None:
            root.t1 = now
            root.ok = ok
        proc = self.env.active_process
        sc = self._scopes.get(proc)
        if sc is not None and sc.ctx is ctx:
            del self._scopes[proc]

    # ------------------------------------------------------------ requests
    def start_request(self, name: str, tenant: str = "",
                      layer: str = "server", t0: float | None = None,
                      **labels) -> TraceContext:
        """Open a trace for the op the *current* process is serving.

        ``layer`` tags the root span; the connection front end opens
        requests at layer ``"net"`` so queue residency before the
        server CPU is part of the trace.  ``t0`` backdates the trace to
        the request's *intended* start (open-loop schedules): the trace
        duration then matches the coordinated-omission-free latency."""
        self.requests_seen += 1
        tid = self.requests_seen
        return self._open(TraceContext(
            tid, name, tenant, self.env.now if t0 is None else t0,
            sampled=(tid % self.sample_every) == 0), layer, labels)

    def finish_request(self, ctx: TraceContext, ok: bool = True) -> None:
        self._close(ctx, ok)
        self._retain(ctx)

    def _retain(self, ctx: TraceContext) -> None:
        if ctx.sampled or ctx.truncated:
            self.kept[ctx.trace_id] = ctx
            return
        dur = ctx.duration
        if len(self._slow) < self.keep_slowest:
            heapq.heappush(self._slow, (dur, ctx.trace_id))
            self.kept[ctx.trace_id] = ctx
        elif self._slow and dur > self._slow[0][0]:
            _, evicted = heapq.heapreplace(self._slow, (dur, ctx.trace_id))
            old = self.kept.get(evicted)
            if old is not None and not (old.sampled or old.truncated):
                del self.kept[evicted]
            self.kept[ctx.trace_id] = ctx
            self.requests_dropped += 1
        else:
            self.requests_dropped += 1

    # ------------------------------------------------------------ handoff
    def capture(self):
        """Snapshot the current scope for a cross-process handoff
        (attach the result to the in-flight command)."""
        sc = self._scope()
        if sc is None:
            return None
        return (sc.ctx, sc.stack[-1])

    def adopt(self, handoff) -> None:
        """Bind a captured scope to the *current* process."""
        ctx, parent = handoff
        self._scopes[self.env.active_process] = _Scope(ctx, [parent])

    def release(self) -> None:
        """Drop the current process's binding (end of the handoff)."""
        self._scopes.pop(self.env.active_process, None)

    # ------------------------------------------------------------ background
    def begin_background(self, name: str) -> TraceContext:
        """Open an anonymous trace for a shared background activity
        (WAL drain, pagecache writeback) running with no request scope.
        Its spans land in :attr:`background` at finish."""
        self._bg_seq += 1
        return self._open(TraceContext(-self._bg_seq, name, "", self.env.now,
                                       background=True), "server", {})

    def finish_background(self, ctx: TraceContext) -> None:
        self._close(ctx)
        # linked spans entered the buffer when they opened
        self.background.extend(s for s in ctx.spans
                               if s.t1 is not None and not s.links)

    # ------------------------------------------------------------ spans
    def _book(self, sc: _Scope, span: SpanRecord) -> None:
        self._span_seq += 1
        span.trace_id = sc.ctx.trace_id
        span.span_id = self._span_seq
        span.parent_id = sc.stack[-1]
        sc.ctx.spans.append(span)
        if span.links:
            # linked spans are causal join points (group commit):
            # mirror them into the background buffer so blame analysis
            # can follow a victim's links even when this span's own
            # trace is later dropped by sampling
            self.background.append(span)

    def join(self, span: SpanRecord) -> None:
        """Open an existing (registry) span under the current scope, if
        the running process carries one; it then closes through
        :meth:`close_span`."""
        sc = self._scope()
        if sc is not None:
            self._book(sc, span)
            sc.stack.append(span.span_id)

    def open_span(self, name: str, layer: str, links=(),
                  **labels) -> SpanRecord | None:
        """Open a child span under the current scope (or ``None`` if
        the running process carries no trace)."""
        if self._scope() is None:
            return None
        span = SpanRecord(name, layer, self.env.now, labels=labels,
                          links=links)
        self.join(span)
        return span

    def close_span(self, span: SpanRecord | None, ok: bool = True,
                   **labels) -> None:
        if span is None:
            return
        span.t1 = self.env.now
        span.ok = ok
        if labels:
            span.labels.update(labels)
        sc = self._scope()
        if sc is not None and sc.stack and sc.stack[-1] == span.span_id:
            sc.stack.pop()

    def add_span(self, name: str, layer: str, t0: float, t1: float,
                 **labels) -> SpanRecord | None:
        """Record an already-timed leaf span under the current scope."""
        sc = self._scope()
        if sc is None:
            return None
        span = SpanRecord(name, layer, t0, t1, labels)
        self._book(sc, span)
        return span

    # ------------------------------------------------------------ WAL links
    def note_wal_stage(self, wal, seq: int) -> None:
        """Record that the current request staged record ``seq`` of
        ``wal`` (called synchronously from ``WalManager.stage``)."""
        sc = self._scope()
        if sc is not None and not sc.ctx.background:
            self._staged_wal.setdefault(wal, []).append(
                (seq, sc.ctx.trace_id))

    def take_staged(self, wal, upto_seq: int) -> tuple[int, ...]:
        """Consume the notes of ``wal``'s records a drain is about to
        retire; returns the distinct trace ids the flush makes durable.
        Sequence numbers are per WAL, so each shard's drain takes only
        its own notes."""
        notes = self._staged_wal.get(wal)
        if not notes:
            return ()
        taken, rest = [], []
        for seq, tid in notes:
            (taken if seq <= upto_seq else rest).append((seq, tid))
        self._staged_wal[wal] = rest
        return tuple(dict.fromkeys(tid for _, tid in taken))

    # ------------------------------------------------------------ faults
    def drain_open(self) -> list[TraceContext]:
        """Close every open scope at the current sim time (power cut /
        end of run).  Truncated request traces are force-kept so crash
        forensics always sees them; returns the contexts drained."""
        now = self.env.now
        drained: list[TraceContext] = []
        for proc, sc in list(self._scopes.items()):
            del self._scopes[proc]
            ctx = sc.ctx
            if ctx.truncated:   # a handoff scope of a context drained above
                continue
            for span in ctx.spans:
                if span.t1 is None:
                    span.t1 = now
                    span.ok = False
                    span.labels["truncated"] = True
            ctx.truncated = True
            ctx.t1 = now
            if ctx.background:
                self.background.extend(s for s in ctx.spans if not s.links)
            else:
                self._retain(ctx)
            drained.append(ctx)
        return drained


# ---------------------------------------------------------------- validation
def validate_trace(ctx: TraceContext) -> list[str]:
    """Well-formedness check; returns a list of problems (empty = ok).

    A *truncated* trace is still well-formed: every span closed (by
    ``drain_open``), timestamps ordered, every parent resolvable."""
    problems: list[str] = []
    if ctx.t1 is None:
        problems.append("context never finished")
    if not ctx.spans:
        problems.append("no spans")
        return problems
    ids = {s.span_id for s in ctx.spans}
    roots = [s for s in ctx.spans if s.parent_id is None]
    if len(roots) != 1:
        problems.append(f"expected 1 root span, found {len(roots)}")
    for s in ctx.spans:
        if s.t1 is None:
            problems.append(f"span {s.span_id} ({s.name}) never closed")
        elif s.t1 < s.t0:
            problems.append(f"span {s.span_id} ({s.name}) ends before start")
        if s.parent_id is not None and s.parent_id not in ids:
            problems.append(
                f"span {s.span_id} ({s.name}) parent "
                f"{s.parent_id} not in trace")
        if s.trace_id != ctx.trace_id:
            problems.append(f"span {s.span_id} belongs to another trace")
    if ctx.t1 is not None and roots:
        r = roots[0]
        if r.t1 is not None and r.t1 - 1e-12 > ctx.t1:
            problems.append("root span outlives the context")
    return problems


# ---------------------------------------------------------------- analysis
def _depths(spans) -> dict[int, int]:
    """span id -> nesting depth, in one pass: a trace lists each parent
    before its children (spans are appended as they open, and
    :func:`load_trace_jsonl` rejects a dump that breaks the order)."""
    depth: dict[int, int] = {}
    for s in spans:
        parent = depth.get(s.parent_id)
        depth[s.span_id] = 0 if parent is None else parent + 1
    return depth


def critical_path(spans) -> list[tuple[SpanRecord, float, float]]:
    """Self-time decomposition of one trace.

    Returns ``(span, t0, t1)`` segments covering the root interval,
    each owned by the *deepest* span active there — i.e. where the
    request actually spent its time."""
    closed = [s for s in spans if s.t1 is not None]
    roots = [s for s in closed if s.parent_id is None]
    if not roots:
        return []
    root = roots[0]
    depth = _depths(closed)
    cuts = sorted({t for s in closed for t in (s.t0, s.t1)
                   if root.t0 <= t <= root.t1})
    segments: list[tuple[SpanRecord, float, float]] = []
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        covering = [s for s in closed if s.t0 <= mid <= s.t1]
        if not covering:
            continue
        best = max(covering,
                   key=lambda s: (depth[s.span_id], s.t0, s.span_id))
        if segments and segments[-1][0] is best and segments[-1][2] == a:
            segments[-1] = (best, segments[-1][1], b)
        else:
            segments.append((best, a, b))
    return segments


def dominant_layer(spans) -> tuple[str, float]:
    """(layer, self-time) of the layer that dominated this request."""
    per: dict[str, float] = {}
    for span, a, b in critical_path(spans):
        per[span.layer] = per.get(span.layer, 0.0) + (b - a)
    if not per:
        return ("server", 0.0)
    # ties break toward the deeper layer (later in LAYERS)
    order = {layer: i for i, layer in enumerate(LAYERS)}
    layer = max(per, key=lambda k: (per[k], order.get(k, -1)))
    return layer, per[layer]


@dataclass
class Attribution:
    """Why one slow request was slow: the background job it overlapped."""

    span_name: str = ""
    stream: int | None = None
    overlap: float = 0.0
    owners: tuple[str, ...] = ()
    cross_tenant: bool = False
    via: str = "direct"       # "direct" device spans or "link" (group commit)
    copied: int = 0

    @property
    def blamed(self) -> bool:
        return self.overlap > 0.0


def _merge_intervals(ivs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for a, b in sorted(ivs):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _overlap(ivs: list[tuple[float, float]], t0: float, t1: float) -> float:
    return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in ivs)


def attribute_interference(ctx: TraceContext, gc_spans, background=(),
                           stream_owners=None) -> Attribution:
    """Blame a slow request on the background GC it causally overlapped.

    Evidence intervals are the request's own device-layer spans, plus —
    for group commit — the linked ``wal_flush`` spans the request
    waited on and those flushes' device-layer children from the
    background buffer.  The blamed GC span is the ``gc_reclaim`` with
    the largest time overlap against the merged evidence (only GC that
    actually *copied* pages counts: copy-free reclaims steal no
    device time worth blaming).  ``cross_tenant`` is set when the
    blamed stream's owner set contains a tenant other than the
    victim's — the shared-PID lifetime-mixing story."""
    ivs = [(s.t0, s.t1) for s in ctx.spans
           if s.t1 is not None and s.layer in _DEVICE_LAYERS]
    via = "direct" if ivs else "link"
    linked = [s for s in background
              if s.links and ctx.trace_id in s.links and s.t1 is not None]
    for fl in linked:
        ivs.append((fl.t0, fl.t1))
        for s in background:
            if (s.trace_id == fl.trace_id and s.layer in _DEVICE_LAYERS
                    and s.t1 is not None and not s.links):
                ivs.append((s.t0, s.t1))
    merged = _merge_intervals(ivs)
    if not merged:
        return Attribution()
    best = Attribution()
    for g in gc_spans:
        copied = g.labels.get("copied")
        if not isinstance(copied, int) or copied <= 0:
            continue
        ov = _overlap(merged, g.t0, g.t1)
        if ov <= best.overlap:
            continue
        stream = g.labels.get("stream")
        owners = tuple(sorted((stream_owners or {}).get(stream, ())))
        best = Attribution(
            span_name=g.name, stream=stream, overlap=ov, owners=owners,
            cross_tenant=any(o != ctx.tenant for o in owners),
            via=via, copied=copied,
        )
    return best


@dataclass
class TailRow:
    """One line of the tail-forensics table."""

    rank: int
    ctx: TraceContext
    layer: str
    layer_time: float
    attribution: Attribution


@dataclass
class TailReport:
    """Top-K slowest requests, each blame-assigned."""

    rows: list[TailRow] = field(default_factory=list)
    requests_seen: int = 0
    kept: int = 0

    @property
    def blamed(self) -> list[TailRow]:
        return [r for r in self.rows if r.attribution.blamed]

    @property
    def cross_tenant(self) -> list[TailRow]:
        return [r for r in self.rows if r.attribution.cross_tenant]


def tail_report(contexts, background=(), gc_spans=(), *,
                top_k: int = 16, stream_owners=None,
                requests_seen: int = 0) -> TailReport:
    """Rank the K slowest finished request traces and attribute each."""
    done = [c for c in contexts if c.t1 is not None and not c.background]
    done.sort(key=lambda c: (-c.duration, c.trace_id))
    report = TailReport(requests_seen=requests_seen, kept=len(done))
    for rank, ctx in enumerate(done[:top_k], start=1):
        layer, layer_time = dominant_layer(ctx.spans)
        att = attribute_interference(ctx, gc_spans, background,
                                     stream_owners)
        report.rows.append(TailRow(rank, ctx, layer, layer_time, att))
    return report


# ---------------------------------------------------------------- rendering
def _fmt_t(seconds: float) -> str:
    us = seconds * 1e6
    if us >= 10_000:
        return f"{us / 1000:.2f}ms"
    return f"{us:.1f}us"


def format_waterfall(ctx: TraceContext, overlays=(), width: int = 44) -> str:
    """Render one trace as a text waterfall, background activity
    overlaid below (rows prefixed ``~``)."""
    t0 = ctx.t0
    t1 = ctx.t1 if ctx.t1 is not None else max(
        (s.t1 for s in ctx.spans if s.t1 is not None), default=t0)
    dur = max(t1 - t0, 1e-12)
    depth = _depths(ctx.spans)

    def bar(a, b, ch="#") -> str:
        c0 = int((max(a, t0) - t0) / dur * width)
        c1 = max(c0 + 1, int((min(b, t1) - t0) / dur * width))
        c0 = min(c0, width - 1)
        c1 = min(c1, width)
        return " " * c0 + ch * (c1 - c0) + " " * (width - c1)

    def extra(s, tenant=None) -> str:
        # a label naming the trace's own tenant (a shard view's stamp on
        # a registry span) repeats the header
        shown = sorted(k for k, v in s.labels.items()
                       if not (tenant and v == tenant))
        text = (" [" + " ".join(f"{k}={s.labels[k]}" for k in shown) + "]"
                if shown else "")
        return text + (f" links={list(s.links)}" if s.links else "")

    trunc = " TRUNCATED" if ctx.truncated else ""
    lines = [f"trace {ctx.trace_id} {ctx.name}"
             f"{' tenant=' + ctx.tenant if ctx.tenant else ''}"
             f" dur={_fmt_t(t1 - t0)}{trunc}"]
    for s in sorted(ctx.spans, key=lambda s: (s.t0, s.span_id)):
        end = s.t1 if s.t1 is not None else t1
        lines.append(f"  {s.layer:>9} |{bar(s.t0, end)}| "
                     f"{'  ' * depth[s.span_id]}{s.name} "
                     f"{_fmt_t(end - s.t0)}{extra(s, ctx.tenant)}")
    for ov in sorted(overlays, key=lambda o: (o.t0, o.name)):
        if ov.t1 > t0 and ov.t0 < t1:
            lines.append(f"  ~{ov.layer:>8} |{bar(ov.t0, ov.t1, '=')}| "
                         f"{ov.name} {_fmt_t(ov.duration)}{extra(ov)}")
    return "\n".join(lines)


def format_tail_table(report: TailReport) -> str:
    """The tail-forensics table: one line per slow request."""
    header = (f"{'#':>3} {'trace':>6} {'tenant':<8} {'op':<5} "
              f"{'dur':>10} {'layer':<9} {'layer_t':>10} "
              f"{'blame':<26} {'cross':<5}")
    lines = [header, "-" * len(header)]
    for r in report.rows:
        att = r.attribution
        if att.blamed:
            owners = ",".join(att.owners) if att.owners else "?"
            blame = (f"{att.span_name}[pid={att.stream} {owners}]"
                     f" {_fmt_t(att.overlap)}")
        else:
            blame = "-"
        lines.append(
            f"{r.rank:>3} {r.ctx.trace_id:>6} {r.ctx.tenant or '-':<8} "
            f"{r.ctx.name:<5} {_fmt_t(r.ctx.duration):>10} "
            f"{r.layer:<9} {_fmt_t(r.layer_time):>10} "
            f"{blame:<26} {'yes' if att.cross_tenant else 'no':<5}")
    lines.append(
        f"kept {report.kept} traces of {report.requests_seen} requests; "
        f"{len(report.blamed)} blamed, "
        f"{len(report.cross_tenant)} cross-tenant")
    return "\n".join(lines)


# ---------------------------------------------------------------- exporters
def trace_jsonl_records(tracer: RequestTracer, overlays=(),
                        stream_owners=None, run: str = "slimio"):
    """Yield the JSONL dump: meta, kept traces and their spans, the
    background spans (``bg``), then every registry record in
    ``overlays`` not written above — everything ``repro.obs report``
    needs, each span once. Every span line is
    :meth:`SpanRecord.to_dict`."""
    owners = {str(k): sorted(v) for k, v in (stream_owners or {}).items()}
    yield {
        "type": "meta", "run": run,
        "requests_seen": tracer.requests_seen,
        "requests_dropped": tracer.requests_dropped,
        "sample_every": tracer.sample_every,
        "keep_slowest": tracer.keep_slowest,
        "stream_owners": owners,
    }
    for tid in sorted(tracer.kept):
        ctx = tracer.kept[tid]
        yield {"type": "trace", **ctx.to_dict()}
        for s in ctx.spans:
            yield {"type": "span", **s.to_dict()}
    for s in tracer.background:
        yield {"type": "span", "bg": True, **s.to_dict()}
    for s in _unheld(tracer.kept.values(), tracer.background, overlays):
        yield {"type": "span", **s.to_dict()}


def _unheld(contexts, background, overlays) -> list[SpanRecord]:
    """The registry records (``overlays``) that neither a kept trace
    nor the background buffer holds — matched by identity."""
    held = {id(s) for ctx in contexts for s in ctx.spans}
    held.update(id(s) for s in background)
    return [s for s in overlays if id(s) not in held]


def write_trace_jsonl(path, tracer: RequestTracer, overlays=(),
                      stream_owners=None, run: str = "slimio") -> int:
    """Write the causal-trace dump; returns the number of lines."""
    return write_records(path, trace_jsonl_records(
        tracer, overlays, stream_owners, run))


def load_trace_jsonl(lines):
    """Rebuild (meta, contexts, background, overlays) from a dump.

    Reads either dump through :func:`~repro.obs.export.read_records`:
    a span line flagged ``bg`` is background, one whose trace is in
    the dump belongs to it, and any other closed span is a registry
    record no kept trace holds — an overlay. Raises :class:`DumpError` when a trace
    repeats a span id or lists a span before its parent."""
    meta: dict = {}
    ctxs: dict[int, TraceContext] = {}
    ids: dict[int, set] = {}
    background: list[SpanRecord] = []
    overlays: list[SpanRecord] = []
    for rec in read_records(lines):
        kind = rec["type"]
        if kind == "meta":
            meta = rec
        elif kind == "trace":
            ctx = TraceContext(rec["trace_id"], rec["name"],
                               rec.get("tenant", ""), rec["t0"],
                               sampled=rec.get("sampled", False))
            ctx.t1 = rec.get("t1")
            ctx.truncated = rec.get("truncated", False)
            ctxs[ctx.trace_id] = ctx
            ids[ctx.trace_id] = set()
        elif kind == "span":
            span = SpanRecord.from_dict(rec)
            ctx = ctxs.get(span.trace_id)
            if rec.get("bg"):
                background.append(span)
            elif ctx is not None:
                seen = ids[ctx.trace_id]
                if (span.span_id is None or span.span_id in seen
                        or (span.parent_id is not None
                            and span.parent_id not in seen)):
                    raise DumpError(
                        f"trace {ctx.trace_id}: span {span.span_id} has "
                        f"no id, repeats one or precedes its parent")
                seen.add(span.span_id)
                ctx.spans.append(span)
            elif span.t1 is not None:
                overlays.append(span)
    meta["stream_owners"] = {int(k): set(v) for k, v in
                             (meta.get("stream_owners") or {}).items()}
    return meta, list(ctxs.values()), background, overlays


def perfetto_trace(contexts, background=(), overlays=(),
                   run: str = "slimio") -> dict:
    """Chrome/Perfetto ``traceEvents`` JSON — the one trace-event
    exporter. One process per request trace (pid = trace id) with one
    thread per layer; under pid 0 every background span and every
    registry record in ``overlays``, each once (matched by identity);
    and a flow event from each linked request to the group-commit
    flush that made it durable. (A JSONL dump holds a registry record
    that a kept trace holds only in that trace, so an export of the
    dump draws it in the request's process alone.)

    Each pid-0 slice takes the first thread of its layer whose previous
    slice has ended, so concurrent activity (shards, a sync fsync beside
    a locked drain) never stacks overlapping slices on one thread."""
    tid_of = {layer: i + 1 for i, layer in enumerate(LAYERS)}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "tid": 0, "args": {"name": "background (GC / flush / writeback)"}},
    ]

    def slice_event(s: SpanRecord, pid: int, tid: int) -> dict:
        args = {str(k): v for k, v in s.labels.items()}
        if s.links:
            args["links"] = list(s.links)
        return {
            "ph": "X", "name": s.name, "cat": s.layer, "pid": pid,
            "tid": tid, "ts": s.t0 * 1e6, "dur": max(s.duration * 1e6, 0.001),
            "args": args,
        }

    flow_seq = 0
    roots: dict[int, SpanRecord] = {}
    contexts = sorted(contexts, key=lambda c: c.trace_id)
    for ctx in contexts:
        tid = ctx.trace_id
        name = (f"req {ctx.trace_id} {ctx.name}"
                f"{' ' + ctx.tenant if ctx.tenant else ''}"
                f"{' TRUNCATED' if ctx.truncated else ''}")
        events.append({"ph": "M", "name": "process_name", "pid": tid,
                       "tid": 0, "args": {"name": name}})
        for layer, ltid in tid_of.items():
            events.append({"ph": "M", "name": "thread_name", "pid": tid,
                           "tid": ltid, "args": {"name": layer}})
        for s in ctx.spans:
            if s.t1 is None:
                continue
            events.append(slice_event(
                s, tid, tid_of.get(s.layer, len(LAYERS) + 1)))
            if s.parent_id is None:
                roots[tid] = s

    background = list(background)
    bg = background + _unheld((), background, overlays)
    bg.sort(key=lambda s: s.t0)   # stable: background first at equal t0
    # layer -> [[tid, end of its last slice as exported], ...]
    lanes: dict[str, list[list]] = {}
    next_tid = len(LAYERS) + 1
    for s in bg:
        ev = slice_event(s, 0, 0)
        ts = ev["ts"]
        lane = next((ln for ln in lanes.get(s.layer, ()) if ln[1] <= ts),
                    None)
        if lane is None:
            held = lanes.setdefault(s.layer, [])
            if not held and s.layer in tid_of:
                ltid = tid_of[s.layer]
            else:
                ltid, next_tid = next_tid, next_tid + 1
            label = s.layer if not held else f"{s.layer} #{len(held) + 1}"
            events.append({"ph": "M", "name": "thread_name",
                           "pid": 0, "tid": ltid,
                           "args": {"name": label}})
            lane = [ltid, ts]
            held.append(lane)
        lane[1] = ts + ev["dur"]
        ev["tid"] = lane[0]
        events.append(ev)
        for linked_tid in s.links:
            root = roots.get(linked_tid)
            if root is None:
                continue
            flow_seq += 1
            ts_src = min(max(s.t0, root.t0), root.t1)
            events.append({"ph": "s", "id": flow_seq, "name": "commit",
                           "cat": "flow", "pid": linked_tid,
                           "tid": tid_of["server"], "ts": ts_src * 1e6})
            events.append({"ph": "f", "bp": "e", "id": flow_seq,
                           "name": "commit", "cat": "flow",
                           "pid": 0, "tid": lane[0],
                           "ts": s.t0 * 1e6})
    return {"displayTimeUnit": "ms",
            "otherData": {"run": run},
            "traceEvents": events}
