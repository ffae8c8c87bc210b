"""Differential test: the per-page host path (test-side twin) vs bursts.

``tests/flash/twins.py`` holds the page-at-a-time ``write`` that used
to be a second host path on the FTL. Random op streams — extents on
two streams with TRIMs mixed in, on a device small enough that GC runs
and copies — are applied page by page through the twin and as bursts
through ``write_burst``:

* cut into bursts of one page, the two must agree on *everything*: the
  maps, every segment vector, the free list, every ledger counter, the
  stall total, the clock and the number of events dispatched;
* cut at random, a burst programs its pages as one pipeline and so
  finishes sooner than the same pages written one by one; GC then meets
  different victims, and physical placement, copies and erases
  legitimately differ (they do on ~9 of 10 such streams). What must
  still agree is the logical outcome — which lpns are mapped, the
  per-stream host page counts — and each side's own conservation laws.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.flash import twins
from tests.flash.test_ftl_properties import build

MAX_LPN = 41
#: the registry instruments the FTL books its work into
LEDGER = ("ftl_host_pages_written_total", "ftl_gc_pages_copied_total",
          "ftl_segments_erased_total", "ftl_copyfree_erases_total",
          "ftl_gc_runs_total", "ftl_host_stall_seconds_total")


@st.composite
def extents(draw, max_pages):
    """A random sequence of (op, lpn_start, pages, stream) actions."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=200))):
        kind = draw(st.sampled_from(["write", "write", "write", "trim"]))
        pages = draw(st.integers(min_value=1, max_value=max_pages))
        start = draw(st.integers(min_value=0, max_value=MAX_LPN - pages))
        stream = draw(st.integers(min_value=0, max_value=1))
        ops.append((kind, start, pages, stream))
    return ops


def _apply(ops, per_page: bool):
    env, ftl = build(streams=(0, 1))

    def driver():
        for kind, start, pages, stream in ops:
            if kind == "trim":
                ftl.deallocate(start, pages)
            elif per_page:
                for lpn in range(start, start + pages):
                    yield from twins.write(ftl, lpn, stream)
            else:
                yield from ftl.write_burst(start, pages, stream)

    env.run(until=env.process(driver()))
    env.run()  # let a reclaim in flight finish and book its copies
    ftl.check_invariants()
    return env, ftl


def _ledger(ftl) -> dict:
    return {name: summary["value"]
            for name, summary in ftl.obs.snapshot().items()
            if name.split("{")[0] in LEDGER}


def _physical(ftl) -> dict:
    return {
        "l2p": ftl._l2p.tolist(), "p2l": ftl._p2l.tolist(),
        "seg_state": ftl._seg_state.tolist(),
        "seg_valid": ftl._seg_valid.tolist(),
        "seg_stream": ftl._seg_stream.tolist(),
        "seg_erase": ftl._seg_erase_count.tolist(),
        "free": list(ftl._free),
    }


def _conserved(ftl) -> None:
    """Every programmed page is a host page or a GC copy; every erase
    is on some segment's erase count."""
    ledger = ftl.lifetime
    host, copied = ledger.pages()
    assert ftl.obs.total("nand_page_programs_total") == host + copied
    assert int(ftl._seg_erase_count.sum()) == ledger.erased
    assert ledger.waf() >= 1.0


@given(extents(max_pages=1))
@settings(max_examples=40, deadline=None)
def test_one_page_bursts_are_the_per_page_path_exactly(ops):
    env_p, per_page = _apply(ops, per_page=True)
    env_b, burst = _apply(ops, per_page=False)
    assert _physical(per_page) == _physical(burst)
    assert _ledger(per_page) == _ledger(burst)
    # host + copied per stream, and the four device-wide counters
    assert len(_ledger(burst)) == 2 * 2 + 4
    assert env_p.now == env_b.now
    assert env_p.events_processed == env_b.events_processed
    assert env_p.events_absorbed == env_b.events_absorbed


@given(extents(max_pages=6))
@settings(max_examples=40, deadline=None)
def test_burst_partitions_agree_with_per_page_writes(ops):
    _, per_page = _apply(ops, per_page=True)
    _, burst = _apply(ops, per_page=False)
    assert (per_page._l2p >= 0).tolist() == (burst._l2p >= 0).tolist()
    for sid in (0, 1):
        assert (per_page.lifetime.pages([sid])[0]
                == burst.lifetime.pages([sid])[0])
    _conserved(per_page)
    _conserved(burst)


@pytest.mark.parametrize("max_pages", [1, 6])
def test_gc_pressure_is_on(max_pages):
    """The properties above are only worth their name if op streams of
    the shape they draw make GC copy and the host stall: pin a seeded
    one that does, on both paths."""
    rng = random.Random(2026)
    ops = []
    for _ in range(200):
        kind = rng.choice(["write", "write", "write", "trim"])
        pages = rng.randint(1, max_pages)
        ops.append((kind, rng.randint(0, MAX_LPN - pages), pages,
                    rng.randint(0, 1)))
    for per_page in (True, False):
        _, ftl = _apply(ops, per_page)
        assert ftl.lifetime.erased > 0
        assert ftl.lifetime.copied > 0
        assert ftl.stats.host_stall_time > 0.0


def test_twin_read_matches_read_burst():
    env, ftl = build(streams=(0,))
    got = []

    def driver():
        yield from ftl.write_burst(3, 1, 0)
        for lpn in (3, 4):
            t0 = env.now
            hit = yield from twins.read(ftl, lpn)
            t1 = env.now
            sensed = yield from ftl.read_burst(lpn, 1)
            got.append((hit, sensed, t1 - t0, env.now - t1))

    env.run(until=env.process(driver()))
    (hit3, n3, twin3, burst3), (hit4, n4, twin4, burst4) = got
    assert (hit3, n3) == (True, 1) and twin3 == burst3 > 0
    assert (hit4, n4, twin4, burst4) == (False, 0, 0.0, 0.0)
