"""Array-backed L2P vs the dict reference, op-for-op.

A randomized seeded trace of map/unmap/lookup operations replays
through :class:`L2PMap` (preallocated array + memoryview + numpy
views) and the test-side :class:`~tests.flash.twins.DictL2P`; every operation's return value and every
intermediate state must agree, so any divergence in the fast path
surfaces with the offending op index attached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.l2p import IntVec, L2PMap

from tests.flash.twins import DictL2P

N_LPNS = 256
N_PPNS = 320


def test_intvec_dual_personality_shares_one_buffer():
    v = IntVec(8, fill=-1, typecode="q")
    assert list(v.np) == [-1] * 8
    v.mv[3] = 42
    assert v.np[3] == 42          # scalar write visible to the view
    v.np[5:] = 7
    assert v.mv[5] == v.mv[7] == 7  # vector write visible to scalars
    assert len(v) == 8


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_l2p_matches_dict_reference_op_for_op(seed):
    rng = np.random.default_rng(seed)
    arr = L2PMap(N_LPNS, N_PPNS)
    ref = DictL2P(N_LPNS, N_PPNS)
    free_ppns = list(range(N_PPNS))

    for i in range(4_000):
        op = rng.integers(0, 4)
        lpn = int(rng.integers(0, N_LPNS))
        if op == 0 and free_ppns:  # map to a fresh ppn
            ppn = free_ppns.pop(int(rng.integers(0, len(free_ppns))))
            old_a = arr.map(lpn, ppn)
            old_d = ref.map(lpn, ppn)
            assert old_a == old_d, f"op {i}: map returned {old_a}!={old_d}"
            if old_a >= 0:
                free_ppns.append(old_a)
        elif op == 1:  # unmap (TRIM)
            freed_a = arr.unmap(lpn)
            freed_d = ref.unmap(lpn)
            assert freed_a == freed_d, f"op {i}: unmap {freed_a}!={freed_d}"
            if freed_a >= 0:
                free_ppns.append(freed_a)
        elif op == 2:  # forward lookup
            assert arr.lookup(lpn) == ref.lookup(lpn), f"op {i}"
        else:  # reverse lookup
            ppn = int(rng.integers(0, N_PPNS))
            assert arr.rlookup(ppn) == ref.rlookup(ppn), f"op {i}"

    assert arr.to_dict() == ref.to_dict()
    # reverse map is the exact inverse at the end of the trace
    for lpn, ppn in arr.to_dict().items():
        assert arr.rlookup(ppn) == lpn


def test_l2p_vector_views_see_scalar_ops():
    m = L2PMap(16, 16)
    m.map(3, 7)
    m.map(4, 8)
    assert list(np.flatnonzero(m.fwd_np >= 0)) == [3, 4]
    assert m.rev_np[7] == 3 and m.rev_np[8] == 4
    # vectorized TRIM through the numpy personality (the FTL's
    # deallocate path) stays visible to the scalar personality
    m.fwd_np[3:5] = -1
    m.rev_np[7:9] = -1
    assert m.lookup(3) == -1 and m.rlookup(8) == -1


def test_ftl_invariants_hold_after_random_workload():
    """End-to-end: drive the real FTL on the array-backed state with a
    seeded random mix of writes, bursts, and TRIMs, then let its own
    cross-checking invariant pass (l2p/p2l inversality, per-segment
    valid counts) validate the bookkeeping."""
    from repro.flash import FlashGeometry, FlashTranslationLayer
    from repro.sim import Environment

    env = Environment()
    geo = FlashGeometry.scaled(mb=8, channels=2, dies_per_channel=2,
                               pages_per_block=8)
    ftl = FlashTranslationLayer(env, geo)
    ftl.register_stream(0)
    ftl.register_stream(1)
    rng = np.random.default_rng(7)
    n = ftl.num_lpns

    def driver():
        for _ in range(300):
            op = rng.integers(0, 3)
            if op == 0:
                yield from ftl.write_burst(int(rng.integers(0, n)), 1,
                                           int(rng.integers(0, 2)))
            elif op == 1:
                start = int(rng.integers(0, n - 16))
                yield from ftl.write_burst(start, 16,
                                           int(rng.integers(0, 2)))
            else:
                start = int(rng.integers(0, n - 8))
                ftl.deallocate(start, 8)
            ftl.check_invariants()

    env.run(until=env.process(driver()))
    ftl.check_invariants()
