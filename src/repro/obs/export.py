"""Run exporters: the JSONL record stream, its reader, Prometheus text.

Two serializations of one :class:`~repro.obs.registry.MetricsRegistry`:

* **JSONL** — the run record: one JSON object per line (meta, then
  every span, every event-log entry, then the final value of every
  instrument). Span lines are :meth:`SpanRecord.to_dict`, the schema
  the causal-trace dump (:func:`repro.obs.trace.write_trace_jsonl`)
  writes too, and :func:`read_records` is the one reader of both.
* **Prometheus text** — the familiar exposition dump
  (``name{label="v"} value``) for final counter/gauge values and
  histogram summaries; diffable across runs, greppable in CI logs.

The trace-event (Chrome/Perfetto) view of either dump is
:func:`repro.obs.trace.perfetto_trace`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator

from repro.obs.registry import MetricsRegistry, render_metric_name

__all__ = ["DumpError", "jsonl_records", "write_jsonl", "write_records",
           "read_records", "prometheus_text", "summarize_records"]


# --------------------------------------------------------------------- JSONL
def jsonl_records(registry: MetricsRegistry) -> Iterator[dict]:
    """The run record as an ordered stream of plain dicts."""
    yield {
        "type": "meta",
        "run": registry.name,
        "sim_time": registry.env.now,
        "spans": len(registry.spans),
        "spans_dropped": registry.spans_dropped,
        "instruments": len(registry.instruments()),
    }
    for s in registry.spans:
        yield {"type": "span", **s.to_dict()}
    for ev in registry.events:
        yield {"type": "event", **ev}
    for inst in registry.instruments():
        yield {
            "type": inst.kind, "name": inst.name, "labels": inst.labels,
            **inst.summary(),
        }


def write_jsonl(registry: MetricsRegistry, path) -> int:
    """Write the run record; returns the number of lines written."""
    return write_records(path, jsonl_records(registry))


def write_records(path, records: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the number of lines."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
            n += 1
    return n


class DumpError(ValueError):
    """A dump line that is not a record these exporters write."""


_N, _S, _D = (int, float), str, dict
_OPT_N, _OPT_I = (int, float, type(None)), (int, type(None))
#: record type -> {field: accepted types} for every field a reader
#: indexes or formats; a leading "!" marks a required field
_SCHEMA = {
    "meta": {"sim_time": _N, "stream_owners": _D},
    "trace": {"!trace_id": int, "!name": _S, "!t0": _N, "t1": _OPT_N,
              "tenant": _S},
    "span": {"!name": _S, "!layer": _S, "!t0": _N, "t1": _OPT_N,
             "labels": _D, "links": list, "trace_id": _OPT_I,
             "span_id": _OPT_I, "parent_id": _OPT_I},
    "event": {"!t": _N},
    "counter": {"!name": _S, "!labels": _D, "!value": _N},
    "gauge": {"!name": _S, "!labels": _D, "!value": _N, "low_water": _N,
              "high_water": _N},
    "histogram": {"!name": _S, "!labels": _D, "!count": int, "mean": _N,
                  "p50": _N, "p99": _N, "max": _N},
}
_SCALAR = (str, int, float, type(None))


def _finite_time(t) -> bool:
    return t is None or math.isfinite(t)


#: field -> check of its contents once its type holds: times are
#: finite, and what the trace loader keys dicts by or compares is scalar
_CONTENTS = {
    "t0": _finite_time, "t1": _finite_time, "t": _finite_time,
    "labels": lambda d: all(isinstance(v, _SCALAR) for v in d.values()),
    "links": lambda xs: all(isinstance(x, int) for x in xs),
    "stream_owners": lambda d: all(
        k.removeprefix("-").isdecimal() and k.isascii()
        and isinstance(names, list) and all(isinstance(n, str) for n in names)
        for k, names in d.items()),
}


def _problem(rec) -> str | None:
    if not isinstance(rec, dict):
        return f"expected a JSON object, got {type(rec).__name__}"
    kind = rec.get("type")
    if not isinstance(kind, str) or kind not in _SCHEMA:
        return f"unknown record type {str(kind)[:40]!r}"
    for key, types in _SCHEMA[kind].items():
        field = key.lstrip("!")
        if field not in rec:
            if key != field:
                return f"{kind} record without {field!r}"
        elif not (isinstance(rec[field], types)
                  and _CONTENTS.get(field, lambda v: True)(rec[field])):
            return f"{kind} record with a malformed {field!r}"
    return None


def _float_sized(text: str) -> int:
    """JSON integer hook: every number in a dump fits a float."""
    if math.isinf(float(text)):
        raise ValueError(f"integer out of range {text[:20]}...")
    return int(text)


def read_records(lines: Iterable) -> list[dict]:
    """The one reader of both JSONL dumps (``str`` or ``bytes`` lines,
    blank ones skipped): every record checked against the schema the
    writers produce. Raises :class:`DumpError` naming the first bad
    line."""
    out = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line, parse_int=_float_sized)
        except (ValueError, RecursionError) as e:
            raise DumpError(f"line {n}: unreadable ({e})") from None
        problem = _problem(rec)
        if problem is not None:
            raise DumpError(f"line {n}: {problem}")
        out.append(rec)
    return out


# ---------------------------------------------------------------- Prometheus
def _prom_value(v: float) -> str:
    if v != v:  # nan
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(float(v))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition format of every instrument's final state."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for inst in registry.instruments():
        prom_kind = "counter" if inst.kind == "counter" else "gauge"
        if inst.name not in seen_types:
            lines.append(f"# TYPE {inst.name} "
                         f"{'summary' if inst.kind == 'histogram' else prom_kind}")
            seen_types.add(inst.name)
        if inst.kind == "histogram":
            base = dict(inst.labels)
            s = inst.summary()
            lines.append(
                f"{render_metric_name(inst.name + '_count', base)} "
                f"{_prom_value(s.get('count', 0))}"
            )
            lines.append(
                f"{render_metric_name(inst.name + '_sum', base)} "
                f"{_prom_value(s.get('sum', 0.0))}"
            )
            # no observations -> no quantile lines: an empty summary
            # must not expose NaN (it diffs dirty and trips scrapers)
            if s.get("count"):
                for q in (50, 99):
                    lines.append(
                        f"{render_metric_name(inst.name, {**base, 'quantile': f'0.{q}'})} "
                        f"{_prom_value(inst.percentile(q))}"
                    )
        else:
            lines.append(
                f"{render_metric_name(inst.name, inst.labels)} "
                f"{_prom_value(inst.value)}"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- summaries
def _fmt_seconds(x: float) -> str:
    if x != x:
        return "-"
    if x >= 1.0:
        return f"{x:.3f} s"
    if x >= 1e-3:
        return f"{x * 1e3:.3f} ms"
    return f"{x * 1e6:.1f} us"


def summarize_records(records: list[dict]) -> str:
    """Human summary of a loaded JSONL run record."""
    by_type: dict[str, list[dict]] = {}
    for r in records:
        by_type.setdefault(r.get("type"), []).append(r)
    meta = by_type.get("meta", [{}])[0]
    spans, counters, gauges, hists, events = (by_type.get(k, []) for k in (
        "span", "counter", "gauge", "histogram", "event"))

    out: list[str] = []
    out.append(f"run: {meta.get('run', '?')}   "
               f"sim time: {meta.get('sim_time', float('nan')):.6f} s   "
               f"spans: {len(spans)}   instruments: "
               f"{len(counters) + len(gauges) + len(hists)}")

    if spans:
        out += ["", "spans (by name and layer):"]
        by_name: dict[tuple[str, str], list[dict]] = {}
        for s in spans:
            by_name.setdefault((s["name"], s["layer"]), []).append(s)
        header = f"  {'name':28s} {'layer':10s} {'count':>6s} " \
                 f"{'total':>12s} {'mean':>12s} {'max':>12s}"
        out.append(header)
        for name, layer in sorted(by_name):
            group = by_name[name, layer]
            durs = [s["t1"] - s["t0"] for s in group
                    if s.get("t1") is not None] or [0.0]
            out.append(
                f"  {name:28s} {layer:10s} {len(group):6d} "
                f"{_fmt_seconds(sum(durs)):>12s} "
                f"{_fmt_seconds(sum(durs) / len(durs)):>12s} "
                f"{_fmt_seconds(max(durs)):>12s}"
            )

    if counters:
        out += ["", "counters:"]
        for c in sorted(counters, key=lambda r: r["name"]):
            out.append(f"  {render_metric_name(c['name'], c['labels']):58s} "
                       f"{c.get('value', 0):,.0f}")

    # fault-campaign forensics: anything the injector did plus how the
    # ring coped; zero-valued retry counters are still shown so a clean
    # run reads as explicitly clean
    faulty = [c for c in counters
              if c["name"].startswith(("faults_", "uring_retr"))]
    if faulty:
        out += ["", "faults & retries:"]
        injected = sum(c.get("value", 0) for c in faulty
                       if c["name"].startswith("faults_"))
        retried = sum(c.get("value", 0) for c in faulty
                      if c["name"] == "uring_retries_total")
        gaveup = sum(c.get("value", 0) for c in faulty
                     if c["name"] == "uring_retry_giveups_total")
        out.append(f"  injected events: {injected:,.0f}   "
                   f"ring retries: {retried:,.0f}   "
                   f"give-ups: {gaveup:,.0f}")
        for c in sorted(faulty, key=lambda r: r["name"]):
            out.append(f"  {render_metric_name(c['name'], c['labels']):58s} "
                       f"{c.get('value', 0):,.0f}")
    if gauges:
        out += ["", "gauges:"]
        for g in sorted(gauges, key=lambda r: r["name"]):
            extra = ""
            if "low_water" in g and "high_water" in g:
                extra = (f"   [low {g['low_water']:,.4g} / "
                         f"high {g['high_water']:,.4g}]")
            out.append(f"  {render_metric_name(g['name'], g['labels']):58s} "
                       f"{g.get('value', 0):,.4g}{extra}")
    if hists:
        out += ["", "histograms:"]
        for h in sorted(hists, key=lambda r: r["name"]):
            if not h.get("count"):
                continue
            out.append(
                f"  {render_metric_name(h['name'], h['labels']):58s} "
                f"n={h['count']:<8,d} "
                + " ".join(f"{k}={h.get(k, float('nan')):.4g}"
                           for k in ("mean", "p50", "p99", "max"))
            )
    if events:
        out.append("")
        out.append(f"event log: {len(events)} entries "
                   f"(first at t={events[0]['t']:.6f}, "
                   f"last at t={events[-1]['t']:.6f})")
    return "\n".join(out)
