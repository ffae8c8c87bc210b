"""Result containers and plain-text table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

__all__ = ["format_table", "format_dict_rows", "format_top_tables",
           "ExperimentResult"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_dict_rows(headers: Sequence[str],
                     rows: Sequence[dict]) -> str:
    """Render dict rows against a fixed header set, blanks for
    missing cells — safe for heterogeneous (success + error) rows."""
    return format_table(headers, [[r.get(h, "") for h in headers]
                                  for r in rows])


def format_top_tables(result, n: int = 5) -> str:
    """Best-N and worst-N slices of a sweep, ranked by its ``score``
    (higher is better).

    ``result`` is a :class:`repro.bench.sweep.SweepResult`. Only
    successful rows rank; the infeasible-corner count is reported in
    the footer so a sweep that silently lost half its grid to errors
    cannot read as full coverage.
    """
    headers = result.headers()
    best = result.top("score", n=n)
    worst = result.top("score", n=n, maximize=False)
    ok = len(result.ok_rows())
    err = len(result.rows) - ok
    out = [f"Top {len(best)} by score (max first):",
           format_dict_rows(headers, best), "",
           f"Bottom {len(worst)} by score:",
           format_dict_rows(headers, worst), "",
           f"({ok} feasible points, {err} infeasible)"]
    return "\n".join(out)


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment: str  # "Table 3", "Figure 4", ...
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    #: the values the paper reports, same headers where sensible
    paper_reference: str | None = None
    #: observations about whether the paper's shape holds in this run
    shape_checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: str = ""
    #: raw series for figures: name -> (x array, y array)
    series: dict = field(default_factory=dict)
    #: per-run telemetry snapshots: run label -> MetricsRegistry.snapshot()
    telemetry: dict = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        self.rows.append(list(values))

    def check(self, description: str, ok: bool) -> None:
        self.shape_checks.append((description, bool(ok)))

    @property
    def shapes_hold(self) -> bool:
        return all(ok for _, ok in self.shape_checks)

    def format(self) -> str:
        out = [f"== {self.experiment}: {self.title} ==", ""]
        out.append(format_table(self.headers, self.rows))
        if self.series:
            from repro.bench.plots import timeline_chart

            out += ["", timeline_chart(self.series)]
        if self.paper_reference:
            out += ["", "Paper reference:", self.paper_reference]
        if self.shape_checks:
            out.append("")
            out.append("Shape checks:")
            for desc, ok in self.shape_checks:
                out.append(f"  [{'ok' if ok else 'MISS'}] {desc}")
        if self.notes:
            out += ["", self.notes]
        if self.telemetry:
            out.append("")
            out.append("Telemetry (key counters per run):")
            for label, snap in self.telemetry.items():
                picks = _telemetry_highlights(snap)
                if picks:
                    out.append(f"  {label}: " + "  ".join(picks))
        return "\n".join(out)


#: metrics surfaced in the per-run telemetry footer, (key, short label)
_HIGHLIGHT_METRICS = (
    ("ftl_waf", "waf"),
    ("server_wal_buffer_stalls_total", "wal-stalls"),
    ("fs_journal_commits_total", "journal-commits"),
    ("wal_group_commits_total", "group-commits"),
)


def _telemetry_highlights(snapshot: dict) -> list[str]:
    """Pick a handful of headline metrics out of a registry snapshot."""
    picks = []
    for key, label in _HIGHLIGHT_METRICS:
        for name, summary in snapshot.items():
            if name == key or name.startswith(key + "{"):
                picks.append(f"{label}={_fmt(summary.get('value', 0.0))}")
                break
    return picks
