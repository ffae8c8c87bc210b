"""Unified telemetry: metrics registry, spans, and run exporters.

One :class:`MetricsRegistry` per system captures counters, gauges,
histograms, spans, and an event log; every layer of a built system is
constructed with it (``system.obs``); the exporters serialize a run to
JSONL or Prometheus text, and one trace-event exporter
(:func:`perfetto_trace`) draws any JSONL dump. See
``docs/OBSERVABILITY.md`` for the naming scheme and span hierarchy.

The registry is the only place an occurrence is booked. Components
take ``obs=`` at construction (their own private registry when none is
passed) and fetch their instruments in ``__init__``; booking is always
on and never schedules a simulated event, so it cannot move a run.
"""

from repro.obs.export import (
    DumpError,
    jsonl_records,
    prometheus_text,
    read_records,
    summarize_records,
    write_jsonl,
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
from repro.obs.spans import SpanRecord
from repro.obs.trace import (
    RequestTracer,
    TraceContext,
    critical_path,
    format_tail_table,
    format_waterfall,
    load_trace_jsonl,
    perfetto_trace,
    tail_report,
    trace_jsonl_records,
    validate_trace,
    write_trace_jsonl,
)
from repro.obs.wiring import attach_tracer

__all__ = [
    # the registry and its one span record
    "MetricsRegistry", "LabeledRegistry", "ObsCounter", "ObsGauge",
    "ObsHistogram", "ObsSamples", "percentile", "render_metric_name",
    "SpanRecord",
    # request tracing and tail forensics
    "attach_tracer", "RequestTracer", "TraceContext", "critical_path",
    "tail_report", "validate_trace", "format_waterfall", "format_tail_table",
    # dumps: writers, the one reader, the one trace-event exporter
    "trace_jsonl_records", "write_trace_jsonl", "load_trace_jsonl",
    "jsonl_records", "write_jsonl", "read_records", "DumpError",
    "perfetto_trace", "prometheus_text", "summarize_records",
]
