"""Unified telemetry: metrics registry, spans, and run exporters.

One :class:`MetricsRegistry` per system captures counters, gauges,
histograms, spans, and an event log; every layer of a built system is
constructed with it (``system.obs``); the exporters serialize a run to
JSONL, Prometheus text, or a Chrome trace. See
``docs/OBSERVABILITY.md`` for the naming scheme and span hierarchy.

The registry is the only place an occurrence is booked. Components
take ``obs=`` at construction (their own private registry when none is
passed) and fetch their instruments in ``__init__``; booking is always
on and never schedules a simulated event, so it cannot move a run.
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_records,
    load_jsonl,
    prometheus_text,
    summarize_records,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.registry import (
    LabeledRegistry,
    MetricsRegistry,
    ObsCounter,
    ObsGauge,
    ObsHistogram,
    ObsSamples,
    percentile,
    render_metric_name,
)
from repro.obs.spans import Span, SpanRecord
from repro.obs.trace import (
    RequestTracer,
    TraceContext,
    TraceSpan,
    critical_path,
    format_tail_table,
    format_waterfall,
    load_trace_jsonl,
    overlay_spans,
    perfetto_trace,
    tail_report,
    trace_jsonl_records,
    validate_trace,
    write_trace_jsonl,
)
from repro.obs.wiring import attach_tracer

__all__ = [
    "MetricsRegistry",
    "LabeledRegistry",
    "ObsCounter",
    "ObsGauge",
    "ObsHistogram",
    "ObsSamples",
    "percentile",
    "render_metric_name",
    "Span",
    "SpanRecord",
    "attach_tracer",
    "RequestTracer",
    "TraceContext",
    "TraceSpan",
    "critical_path",
    "tail_report",
    "validate_trace",
    "format_waterfall",
    "format_tail_table",
    "overlay_spans",
    "trace_jsonl_records",
    "write_trace_jsonl",
    "load_trace_jsonl",
    "perfetto_trace",
    "jsonl_records",
    "write_jsonl",
    "load_jsonl",
    "prometheus_text",
    "write_prometheus",
    "chrome_trace",
    "write_chrome_trace",
    "summarize_records",
]
