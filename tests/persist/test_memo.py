"""The one byte-bounded memo policy, over every memo src builds with it.

``BoundedMemo`` is shared by the snapshot chunk codec, the front end's
frame decoder and ``make_value``'s value cache. Each case below builds
its memo the way src does and checks the bound it gets and the policy
it keeps: a store that would cross the bound starts over, an entry
larger than the bound is never stored, and the tally is the sum of the
held entries' sizes.
"""

import pytest

from repro.net import NetConfig, NetFrontend
from repro.net.conn import MEMO_FRAME_BYTES
from repro.persist import compress
from repro.persist.memo import BoundedMemo
from repro.sim import Environment
from repro.workloads import keys


def _chunk_memo():
    return compress._Memo(), compress.MEMO_BLOB_BYTES


def _frame_memo():
    fe = NetFrontend(Environment(), None, NetConfig())
    return fe.decode_memo, MEMO_FRAME_BYTES


def _value_cache():
    # the process-wide cache is live state: check it, exercise a twin
    live = keys._value_cache
    assert type(live) is BoundedMemo and live.bound == keys.VALUE_CACHE_BYTES
    return BoundedMemo(keys.VALUE_CACHE_BYTES), keys.VALUE_CACHE_BYTES


MEMOS = {"chunk": _chunk_memo, "frame": _frame_memo, "value": _value_cache}


def entry(i, size):
    """A (key, value) of ``size`` bytes shaped like the memo's own:
    the chunk memo's values are ``(raw_len, blob)`` pairs."""
    blob = bytes([i % 251]) * size
    return (b"k%04d" % i,), (size, blob)


@pytest.fixture(params=sorted(MEMOS))
def memo(request):
    memo, bound = MEMOS[request.param]()
    assert isinstance(memo, BoundedMemo)
    assert memo.bound == bound and memo == {} and memo.nbytes == 0
    memo.bound = 100
    return memo


def test_store_that_would_cross_the_bound_starts_over(memo):
    for i in range(2):
        assert memo.store(*entry(i, 40), 40)
    assert len(memo) == 2 and memo.nbytes == 80
    key, value = entry(2, 40)
    assert memo.store(key, value, 40)
    assert memo == {key: value} and memo.nbytes == 40


def test_entry_larger_than_the_bound_is_never_stored(memo):
    memo.store(*entry(0, 30), 30)
    key, value = entry(1, 101)
    assert not memo.store(key, value, 101)
    assert key not in memo and len(memo) == 1 and memo.nbytes == 30
    # an entry exactly at the bound fits, alone
    assert memo.store(*entry(2, 100), 100)
    assert len(memo) == 1 and memo.nbytes == 100


def test_tally_is_the_sum_of_held_sizes(memo):
    sizes = [7, 13, 29, 41, 3, 60, 1, 99, 50]
    held = {}
    for i, size in enumerate(sizes):
        if sum(held.values()) + size > memo.bound:
            held.clear()
        key, value = entry(i, size)
        memo.store(key, value, size)
        held[key] = size
        assert memo.nbytes == sum(held.values()) <= memo.bound
        assert set(memo) == set(held)
    memo.clear()
    assert memo == {} and memo.nbytes == 0
