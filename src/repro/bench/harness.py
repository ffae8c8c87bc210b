"""One run path for experiments and sweep grid points.

A *unit* is one picklable call ``fn(arg)`` that returns a picklable
dict: a paper experiment (``arg`` is its name, the payload its report
text and shape verdict) or a design-space grid point (``arg`` is its
parameter dict, the payload its measurements). :func:`run_units` is
the only place units execute — the experiment CLI and ``sweep`` call
it. It computes every unit, serially or over the ``--jobs`` process
pool, and returns one :class:`Outcome` per unit in input order, so
output is identical whatever ``jobs`` is. Nothing is stored between
runs: every report is computed from the tree it describes.
"""

from __future__ import annotations

import functools
import traceback
from collections.abc import Callable, Iterable, Sequence
from typing import Any, NamedTuple

from repro.bench.scales import SCALES

__all__ = ["Outcome", "run_units", "run_experiment", "add_run_options"]


class Outcome(NamedTuple):
    """What one unit produced."""

    #: the unit's payload; None when it raised
    value: dict[str, Any] | None = None
    #: ``"ExcType: message"`` when it raised
    error: str | None = None
    #: the unit's formatted traceback when it raised
    trace: str = ""
    #: host seconds spent computing it, by the caller's ``clock`` (0.0
    #: without a clock)
    wall_s: float = 0.0


def _attempt(fn: Callable[[Any], dict], arg: Any,
             clock: Callable[[], float] | None) -> Outcome:
    """One unit, exception-safe — the process-pool work unit.

    Module-level so it pickles; a failure comes back as data rather
    than as a worker traceback that tears down the pool.
    """
    t0 = clock() if clock else 0.0
    try:
        value = fn(arg)
    except Exception as exc:  # noqa: BLE001 — reported via the Outcome
        return Outcome(error=f"{type(exc).__name__}: {exc}",
                       trace=traceback.format_exc(),
                       wall_s=clock() - t0 if clock else 0.0)
    return Outcome(value=value, wall_s=clock() - t0 if clock else 0.0)


def run_units(fn: Callable[[Any], dict], args: Sequence[Any], *,
              jobs: int = 1,
              clock: Callable[[], float] | None = None,
              log: Callable[[Any, Outcome], None] | None = None,
              ) -> list[Outcome]:
    """Run ``fn(arg)`` for every ``arg``; one :class:`Outcome` each.

    ``fn`` must be picklable (module-level, or a ``functools.partial``
    over one) when ``jobs > 1``. ``clock`` (a picklable ``() ->
    seconds``) times each unit; ``log(arg, outcome)`` is called as each
    outcome becomes known, in input order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    attempt = functools.partial(_attempt, fn, clock=clock)
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _collect(args, pool.map(attempt, args), log)
    return _collect(args, map(attempt, args), log)


def _collect(args: Sequence[Any], outcomes: Iterable[Outcome],
             log: Callable[[Any, Outcome], None] | None) -> list[Outcome]:
    """Drain ``outcomes`` in input order, logging each as it arrives."""
    out = []
    for arg, outcome in zip(args, outcomes):
        if log is not None:
            log(arg, outcome)
        out.append(outcome)
    return out


def run_experiment(name: str, scale) -> dict[str, Any]:
    """One paper experiment as a unit: its report text (with the scale
    footer) and whether its shape checks held."""
    from repro.bench.experiments import EXPERIMENTS

    result = EXPERIMENTS[name](scale)
    return {
        "report": (f"{result.format()}\n\n(regenerated at scale "
                   f"'{scale.name}')\n"),
        "shapes_hold": result.shapes_hold,
    }


def add_run_options(parser, default_scale: str) -> None:
    """The options of every bench subcommand that runs units:
    ``--scale`` and ``--jobs``."""
    parser.add_argument("--scale", default=default_scale, choices=SCALES,
                        help=f"scale preset (default: {default_scale})")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run in N parallel processes (output "
                             "is identical whatever N)")
