"""One run path for experiments and sweep grid points.

A *unit* is one picklable call ``fn(arg)`` that returns a JSON-safe
dict: a paper experiment (``arg`` is its name, the payload its report
text and shape verdict) or a design-space grid point (``arg`` is its
parameter dict, the payload its measurements). :func:`run_units` is
the only place units execute — the experiment CLI, ``sweep``/
``run_grid`` and the tuner all call it. It replays cache hits, runs the
misses serially or over the ``--jobs`` process pool, stores each
success as soon as the parent holds it, and returns one
:class:`Outcome` per unit in input order, so output is identical
whatever ``jobs`` is and whichever units came from the cache.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any, NamedTuple

from repro.bench import cache as result_cache
from repro.bench.scales import SCALES

__all__ = ["Outcome", "run_units", "run_experiment", "EXPERIMENT_FIELDS",
           "add_run_options", "cache_dir_of"]

#: the payload fields an experiment unit returns (and a cache hit must
#: carry, with these types)
EXPERIMENT_FIELDS = {"report": str, "shapes_hold": bool}


class Outcome(NamedTuple):
    """What one unit produced."""

    #: the unit's payload; None when it raised
    value: dict[str, Any] | None = None
    #: ``"ExcType: message"`` when it raised
    error: str | None = None
    #: the unit's formatted traceback when it raised
    trace: str = ""
    #: replayed from the on-disk cache instead of computed
    cached: bool = False
    #: host seconds spent computing it, by the caller's ``clock`` (0.0
    #: on a cache hit or without a clock)
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
              cell: Callable[[Any], tuple[str, dict | None]] | None = None,
              scale=None,
              cache_dir: str | Path | None = None,
              refresh: bool = False,
              fields: dict[str, type] | None = None,
              clock: Callable[[], float] | None = None,
              log: Callable[[Any, Outcome], None] | None = None,
              ) -> list[Outcome]:
    """Run ``fn(arg)`` for every ``arg``; one :class:`Outcome` each.

    With a ``cache_dir``, ``cell(arg)`` names the unit's cache cell as
    ``(experiment, params)`` — keyed with ``scale`` and the code digest
    by :func:`repro.bench.cache.cache_key` — and ``fields`` types the
    payload a hit must carry. Hits are replayed unless ``refresh``;
    only successes are stored (a failure re-runs every time, so a fix
    is never hidden behind a cached error). ``fn`` must be picklable
    (module-level, or a ``functools.partial`` over one) when
    ``jobs > 1``. ``clock`` (a picklable ``() -> seconds``) times each
    computed unit; ``log(arg, outcome)`` is called as each outcome
    becomes known — cache hits first, then computed units in input
    order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    outcomes: list[Outcome | None] = [None] * len(args)
    keys: list[str | None] = [None] * len(args)
    if cache_dir is not None:
        for i, arg in enumerate(args):
            experiment, params = cell(arg)
            keys[i] = result_cache.cache_key(experiment, scale, params)
            if not refresh:
                hit = result_cache.load(keys[i], cache_dir, fields)
                if hit is not None:
                    outcomes[i] = Outcome(value=hit, cached=True)
                    if log is not None:
                        log(arg, outcomes[i])
    todo = [i for i, o in enumerate(outcomes) if o is None]

    def settle(i: int, outcome: Outcome) -> None:
        outcomes[i] = outcome
        if keys[i] is not None and outcome.error is None:
            result_cache.store(keys[i], cell(args[i])[0], outcome.value,
                               cache_dir)
        if log is not None:
            log(args[i], outcome)

    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {i: pool.submit(_attempt, fn, args[i], clock)
                       for i in todo}
            for i in todo:
                settle(i, futures[i].result())
    else:
        for i in todo:
            settle(i, _attempt(fn, args[i], clock))
    return outcomes


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


def add_run_options(parser, default_scale: str, *,
                    jobs: bool = True) -> None:
    """The options of every bench subcommand that runs units:
    ``--scale``, ``--jobs`` (unless the command runs one unit at a
    time) and the result-cache trio."""
    parser.add_argument("--scale", default=default_scale, choices=SCALES,
                        help=f"scale preset (default: {default_scale})")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="run in N parallel processes (output "
                                 "is identical whatever N)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk result cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even on cache hit, then rewrite "
                             "the cache entry")
    parser.add_argument("--cache-dir",
                        default=str(result_cache.DEFAULT_CACHE_DIR),
                        help="result cache location (default: out/cache)")


def cache_dir_of(args) -> str | None:
    """The cache directory :func:`add_run_options` parsed (None with
    ``--no-cache``)."""
    return None if args.no_cache else args.cache_dir
