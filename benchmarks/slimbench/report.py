"""Render result documents and compare two sets of them.

The comparison follows the choosing-metrics method: one row per
workload × end-to-end metric, both sides' medians and quartiles, the
metric's bound, every ratio with its base, and a verdict that says
*unresolved* when the run-to-run spread is wider than the bound.
"""

from __future__ import annotations

import statistics

from .metrics import BY_NAME, END_TO_END

__all__ = ["format_doc", "side_samples", "quartiles", "verdict", "compare",
           "format_compare"]

#: metrics whose bound is absolute (percentage points), not relative
_POINT_BOUNDED = {"rps_gain_pct", "set_p999_cut_pct", "fidelity_err_pct"}


def format_doc(doc: dict) -> str:
    """One workload's result as a table: every metric by name with
    value, unit, clock, sample count and bound."""
    head = (f"== {doc['workload']}  seed={doc['seed']}  mode={doc['mode']}"
            f"{'  SMOKE' if doc['smoke'] else ''}  "
            f"ops_attempted={doc['attempted']}  ops_failed={doc['failed']}  "
            f"{'CORRECT' if doc['correct'] else 'CHECKS FAILED'}")
    lines = [head]
    for name, m in doc["metrics"].items():
        row = f"  {name:42s} {m['value']:>16.6g} {m['unit']:<6s}"
        if "clock" in m:
            bound = "-" if m["bound"] is None else f"{m['bound']:g}"
            row += (f" clock={m['clock']:<4s} n={m['samples']:<7d} "
                    f"{m['better']}-is-better bound={bound}")
        sp = m.get("spread")
        if sp:
            row += (f"  [raw CPU s: best {sp['best']:.4g} median "
                    f"{sp['median']:.4g} q1 {sp['q1']:.4g} q3 {sp['q3']:.4g} "
                    f"of {sp['n']}, best was #{sp['best_index'] + 1}; "
                    f"x{sp['speed_factor']:.3f} to reference speed]")
        lines.append(row)
    lines += [f"  MISS: {m}" for m in doc["misses"]]
    prov = doc["provenance"]
    lines.append(
        f"  provenance: commit={prov['git_commit']} "
        f"src={prov['src_repro_digest']} backend={prov['engine_backend']} "
        f"lanes={prov['lanes']} python={prov['python']} "
        f"numpy={prov['numpy']} nproc={prov['nproc']} "
        f"subseeds={prov['subseeds'][0]}..{prov['subseeds'][-1]}")
    return "\n".join(lines)


def side_samples(docs: list[dict], metric: str) -> list[float]:
    """The values one side of a comparison has for ``metric``: one per
    document (run) that reports it."""
    return [d["metrics"][metric]["value"] for d in docs
            if metric in d["metrics"]]


def quartiles(v: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value stands for all three."""
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def verdict(metric: str, parent: list[float], change: list[float]) -> dict:
    """Judge one workload × metric row (choosing-metrics §6–8)."""
    m = BY_NAME[metric]
    sign = 1.0 if m.better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_by = sign * (cmed - pmed)          # > 0: the change is worse
    if metric in _POINT_BOUNDED or not pmed:
        allowed, spread = m.bound, pq3 - pq1
    else:
        allowed, spread = m.bound * abs(pmed), pq3 - pq1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    clean_sweep = all(sign * (c - p) < 0 for p in parent for c in change)
    if m.clock == "sim" and len(parent) == len(change) == 1:
        # same seed, deterministic clock: any difference is real
        if cmed == pmed:
            word = "identical"
        elif worse_by > allowed:
            word = "WORSE"
        else:
            word = "better" if worse_by < 0 else "worse-within-bound"
    elif worse_by > allowed:
        word = "WORSE"
    elif spread > allowed and not clean_sweep:
        word = "unresolved"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and abs(cmed - pmed) > spread):
        word = "better"
    else:
        word = "no-regression"
    return {
        "metric": metric, "unit": m.unit, "clock": m.clock,
        "bound": m.bound, "verdict": word,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "n": len(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "n": len(change)},
        "ratio": cmed / pmed if pmed else None,
        "wins": wins, "pairs": len(pairs),
    }


def compare(parent_docs: list[dict], change_docs: list[dict]) -> list[dict]:
    """Rows for every workload × end-to-end metric both sides have."""
    rows = []
    workloads = []
    for d in parent_docs:
        if d["workload"] not in workloads:
            workloads.append(d["workload"])
    for w in workloads:
        p = [d for d in parent_docs if d["workload"] == w]
        c = [d for d in change_docs if d["workload"] == w]
        if not c:
            continue
        for m in END_TO_END:
            ps, cs = side_samples(p, m.name), side_samples(c, m.name)
            if ps and cs:
                rows.append({"workload": w, **verdict(m.name, ps, cs)})
    return rows


def _side(d: dict) -> str:
    if d["n"] == 1:
        return f"{d['median']:.6g}"
    return f"{d['median']:.6g} [{d['q1']:.6g}, {d['q3']:.6g}] n={d['n']}"


def format_compare(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        p, c = r["parent"], r["change"]
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.4f}"
        lines.append(
            f"{r['workload']:14s} {r['metric']:22s} {r['clock']:4s} "
            f"parent {_side(p)}  change {_side(c)}  "
            f"change/parent={ratio} (base {p['median']:.6g} {r['unit']})  "
            f"bound={r['bound']:g}  pairs won {r['wins']}/{r['pairs']}  "
            f"-> {r['verdict']}")
    return "\n".join(lines)
