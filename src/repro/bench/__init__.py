"""Experiment harness: one function per paper table/figure.

Each experiment assembles scaled-down systems and workloads, runs the
simulation, and returns an :class:`~repro.bench.report.ExperimentResult`
holding both the measured rows and the paper's reference values so
reports can show paper-vs-measured side by side. Import what you use
from its defining module (``repro.bench.experiments``,
``repro.bench.scales``, ``repro.bench.sweep``, ...); importing one of
them does not import the others.

CLI::

    python -m repro.bench list
    python -m repro.bench table3 [--scale test|bench]
    python -m repro.bench all
"""
