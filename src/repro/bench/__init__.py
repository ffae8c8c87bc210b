"""Experiment harness: one function per paper table/figure.

Each experiment assembles scaled-down systems and workloads, runs the
simulation, and returns an :class:`~repro.bench.report.ExperimentResult`
holding both the measured rows and the paper's reference values so
reports can show paper-vs-measured side by side.

CLI::

    python -m repro.bench list
    python -m repro.bench table3 [--scale test|bench]
    python -m repro.bench all
"""

from repro.bench.plots import timeline_chart
from repro.bench.report import ExperimentResult, format_table
from repro.bench.sweep import SweepResult, sweep, write_csv
from repro.bench.scales import Scale, TEST_SCALE, BENCH_SCALE
from repro.bench.experiments import (
    EXPERIMENTS,
    cluster,
    figure2a,
    figure2b,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "ExperimentResult",
    "format_table",
    "timeline_chart",
    "SweepResult",
    "sweep",
    "write_csv",
    "Scale",
    "TEST_SCALE",
    "BENCH_SCALE",
    "EXPERIMENTS",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure2a",
    "figure2b",
    "figure4",
    "figure5",
    "cluster",
]
