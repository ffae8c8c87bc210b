"""ASCII rendering for figure-style results (no plotting deps).

The paper's Figures 4 and 5 are RPS-vs-time line charts; this module
renders the same series as terminal block charts so `python -m
repro.bench figure4` shows the *shape* — the stable plateau, the GC
nosedives, the snapshot windows — directly in the report.
"""

from __future__ import annotations

import numpy as np

__all__ = ["timeline_chart", "grid_heatmap", "sweep_panels"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def timeline_chart(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    width: int = 72,
    height: int = 8,
) -> str:
    """Multi-row block chart, one labelled band per series.

    Each band shows ``height`` rows of the rate timeline, resampled to
    ``width`` columns; all bands share one y-scale so systems are
    visually comparable (as in the paper's stacked Figures 4/5).
    """
    if not series:
        return "(no series)"
    vmax = max(
        float(np.max(rates)) if len(rates) else 0.0
        for _, rates in series.values()
    )
    if vmax <= 0:
        vmax = 1.0
    out: list[str] = []
    for name, (centers, rates) in series.items():
        rates = np.asarray(rates, dtype=np.float64)
        if rates.size == 0:
            out.append(f"{name}: (empty)")
            continue
        # resample to the display width
        cols = np.interp(
            np.linspace(0, rates.size - 1, width),
            np.arange(rates.size),
            rates,
        )
        out.append(f"{name}  (peak {vmax:,.0f} req/s)")
        levels = np.clip(cols / vmax * height, 0.0, height)
        for row in range(height, 0, -1):
            line = "".join(
                "█" if lv >= row else ("▄" if lv >= row - 0.5 else " ")
                for lv in levels
            )
            out.append("  |" + line)
        out.append("  +" + "-" * width)
    return "\n".join(out)


# --------------------------------------------------------------------------
# design-space heatmaps (sweep grids)
# --------------------------------------------------------------------------

def _fmt_cell(value: float) -> str:
    if value != value:  # nan
        return "-"
    if abs(value) >= 10_000:
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def grid_heatmap(result, x: str, y: str, metric: str) -> str:
    """One shaded panel of a sweep: ``metric`` over an (x, y) slice.

    ``result`` is a :class:`repro.bench.sweep.SweepResult`. Cells
    average the metric over every *other* axis (error rows and rows
    missing the metric are skipped); shade is normalized to the panel
    maximum, and each cell also prints its mean so the chart carries
    numbers, not just shape. Cells with no feasible point render "·".
    """
    xs = result.axis_values(x)
    ys = result.axis_values(y)
    if not xs or not ys:
        return f"(no data for {metric} over {x} x {y})"
    sums: dict[tuple, list[float]] = {}
    for row in result.rows:
        if "error" in row or metric not in row:
            continue
        if x not in row or y not in row:
            continue
        sums.setdefault((row[x], row[y]), []).append(float(row[metric]))
    means = {k: sum(v) / len(v) for k, v in sums.items()}
    if not means:
        return f"(no data for {metric} over {x} x {y})"
    vmax = max(abs(v) for v in means.values())
    cells: list[list[str]] = []
    for yv in ys:
        line = []
        for xv in xs:
            v = means.get((xv, yv))
            if v is None:
                line.append("·")
            else:
                shade = (_BLOCKS[-1] if vmax <= 0 else
                         _BLOCKS[int(np.clip(
                             np.ceil(abs(v) / vmax * (len(_BLOCKS) - 1)),
                             1, len(_BLOCKS) - 1))])
                line.append(f"{shade} {_fmt_cell(v)}")
        cells.append(line)
    ylab_w = max(len(str(v)) for v in ys)
    col_w = [max(len(str(xs[i])),
                 max(len(r[i]) for r in cells)) for i in range(len(xs))]
    out = [f"{metric}  (mean over other axes; x={x}, y={y}, "
           f"panel max {_fmt_cell(vmax)})"]
    header = " " * (ylab_w + 2) + "  ".join(
        str(v).ljust(w) for v, w in zip(xs, col_w))
    out.append(header)
    for yv, line in zip(ys, cells):
        out.append(str(yv).rjust(ylab_w) + "  " + "  ".join(
            c.ljust(w) for c, w in zip(line, col_w)))
    return "\n".join(out)


def sweep_panels(result, panels) -> str:
    """Render a grid's configured heatmap panels, stacked."""
    if not panels:
        return ""
    return "\n\n".join(grid_heatmap(result, x, y, metric)
                       for x, y, metric in panels)
