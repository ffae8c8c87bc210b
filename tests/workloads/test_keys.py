"""Key/value generator tests."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.compress import Compressor
from repro.persist.memo import BoundedMemo
from repro.workloads import UniformKeys, ZipfianKeys, keys, make_key, make_value


def reference_make_value(key: bytes, size: int,
                         incompressible_fraction: float = 0.6) -> bytes:
    """Cache-free twin of :func:`make_value`: rebuilds the template pool
    on every call, so no earlier call can shape its result."""
    digest = hashlib.blake2b(key, digest_size=8).digest()
    header = digest + struct.pack("<I", size)
    if size <= len(header):
        return header[:size]
    fraction = round(incompressible_fraction, 3)
    rng = np.random.default_rng(0xC0FFEE)
    n_random = int(size * fraction)
    pool = []
    for _ in range(32):
        rand = rng.integers(0, 256, size=n_random, dtype=np.uint8).tobytes()
        filler_byte = bytes([int(rng.integers(0, 256))])
        pool.append(rand + filler_byte * (size - n_random))
    return (header + pool[digest[0] % 32])[:size]


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty value cache and template pool, as in a new process."""
    cache = BoundedMemo(keys.VALUE_CACHE_BYTES)
    monkeypatch.setattr(keys, "_value_cache", cache)
    monkeypatch.setattr(keys, "_templates", {})
    return cache


def test_make_key_fixed_width():
    assert len(make_key(0)) == 8
    assert len(make_key(123456, width=4)) == 4
    assert make_key(1) != make_key(2)


def test_make_value_deterministic():
    assert make_value(b"k1", 500) == make_value(b"k1", 500)
    assert make_value(b"k1", 500) != make_value(b"k2", 500)


def test_make_value_size_exact():
    for size in (1, 10, 100, 4096, 5000):
        assert len(make_value(b"key", size)) == size


def test_make_value_size_validation():
    with pytest.raises(ValueError):
        make_value(b"k", 0)


def test_make_value_compressibility_tunable():
    comp = Compressor()
    soft = make_value(b"k", 4096, incompressible_fraction=0.1)
    hard = make_value(b"k", 4096, incompressible_fraction=0.95)
    assert comp.ratio(soft) < comp.ratio(hard)
    # default lands in LZF-on-real-data territory
    default = make_value(b"k", 4096)
    assert 0.3 < comp.ratio(default) < 0.95


def test_uniform_keys_in_range():
    gen = UniformKeys(100, seed=3)
    draws = gen.draw(10_000)
    assert draws.min() >= 0
    assert draws.max() < 100
    # roughly uniform: every key appears
    assert len(np.unique(draws)) == 100


def test_uniform_deterministic_by_seed():
    a = UniformKeys(50, seed=9).draw(100)
    b = UniformKeys(50, seed=9).draw(100)
    np.testing.assert_array_equal(a, b)
    c = UniformKeys(50, seed=10).draw(100)
    assert not np.array_equal(a, c)


def test_zipfian_keys_in_range():
    gen = ZipfianKeys(1000, seed=3)
    draws = gen.draw(20_000)
    assert draws.min() >= 0
    assert draws.max() < 1000


def test_zipfian_is_skewed():
    gen = ZipfianKeys(1000, theta=0.99, seed=3)
    draws = gen.draw(50_000)
    _, counts = np.unique(draws, return_counts=True)
    counts = np.sort(counts)[::-1]
    # the hottest key takes a disproportionate share
    assert counts[0] > 10 * np.median(counts)
    # top-10% of keys take the majority of accesses
    top = counts[: len(counts) // 10].sum()
    assert top > 0.5 * draws.size


def test_zipfian_hot_keys_scattered():
    """YCSB-style scramble: the hottest key is not simply index 0."""
    gens = [ZipfianKeys(1000, seed=s) for s in (1, 2)]
    hot = []
    for g in gens:
        draws = g.draw(20_000)
        vals, counts = np.unique(draws, return_counts=True)
        hot.append(vals[np.argmax(counts)])
    # same scramble for same seed base logic; existence check:
    assert any(h != 0 for h in hot)


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianKeys(0)
    with pytest.raises(ValueError):
        ZipfianKeys(10, theta=1.5)
    with pytest.raises(ValueError):
        UniformKeys(0)


def test_make_value_independent_of_call_order(fresh_cache, monkeypatch):
    """A fraction that rounds onto a pool someone else built gets the
    bytes it would get in a fresh process."""
    first = make_value(b"k", 4096, 0.6004)
    monkeypatch.setattr(keys, "_value_cache",
                        BoundedMemo(keys.VALUE_CACHE_BYTES))
    monkeypatch.setattr(keys, "_templates", {})
    make_value(b"k", 4096, 0.6)
    assert make_value(b"k", 4096, 0.6004) == first
    assert first == reference_make_value(b"k", 4096, 0.6004)


def test_value_cache_never_holds_more_than_its_bound(fresh_cache):
    size = 4096
    per_fill = keys.VALUE_CACHE_BYTES // size
    for i in range(per_fill + per_fill // 2):
        make_value(make_key(i), size)
        assert fresh_cache.nbytes <= keys.VALUE_CACHE_BYTES
    assert fresh_cache.nbytes == sum(len(v) for v in fresh_cache.values())
    # crossing the bound started over rather than keeping everything
    assert len(fresh_cache) < per_fill


def test_oversize_value_returned_but_not_stored(fresh_cache):
    fresh_cache.bound = 1000
    small = make_value(b"s", 600)
    value = make_value(b"big", 2000)
    assert value == reference_make_value(b"big", 2000)
    assert (b"big", 2000, 0.6) not in fresh_cache
    assert list(fresh_cache.values()) == [small]
    assert fresh_cache.nbytes == 600


def test_value_cache_hit_returns_identical_object(fresh_cache):
    first = make_value(b"hit", 512)
    assert make_value(b"hit", 512) is first
    assert fresh_cache.nbytes == 512


@settings(max_examples=60, deadline=None)
@given(key=st.binary(min_size=0, max_size=16),
       size=st.one_of(st.integers(1, 12), st.integers(13, 3000)),
       fraction=st.sampled_from([0.0, 0.1, 0.5, 0.6, 0.6004, 0.95, 1.0]),
       repeat=st.booleans())
def test_make_value_matches_cache_free_twin(key, size, fraction, repeat):
    value = make_value(key, size, fraction)
    if repeat:
        value = make_value(key, size, fraction)
    assert value == reference_make_value(key, size, fraction)
    assert len(value) == size
