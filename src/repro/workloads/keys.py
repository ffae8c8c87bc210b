"""Key and value generation.

Keys are fixed-width (8 bytes, like the paper's workloads) and drawn
uniformly (redis-benchmark) or zipfian (YCSB). The zipfian generator is
YCSB's (Gray et al.) rejection-free construction with precomputed
zeta constants.

Values come from a small pool of deterministic templates mixing
incompressible and repetitive spans, tuned so zlib level 1 lands near a
target ratio (~0.7 by default, LZF-on-real-data territory). The first
bytes of every value encode the key, so overwrites and recovery
comparisons are meaningful.

:func:`make_value` is a pure function of its arguments, so its results
are memoized in one process-wide cache bounded by the value bytes it
holds (:data:`VALUE_CACHE_BYTES`), not by entries: a store that would
cross the bound clears the cache first, and a larger value is returned
without being stored. What outlives a run is therefore at most the
bound, however many distinct values the run drew.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.persist.memo import BoundedMemo

__all__ = ["make_key", "make_value", "UniformKeys", "ZipfianKeys"]

_TEMPLATE_POOL_SIZE = 32
_templates: dict[tuple[int, float], list[bytes]] = {}

#: bound on the value bytes :data:`_value_cache` holds. The workloads
#: that revisit values draw at most ~10 MB of distinct ones
#: (``openloop_net``; ``redis_set_gc`` and ``ycsb_a_always`` ~8 MB), so
#: they never reach it; a bulk load that writes each key once (an
#: ~84 MB universe in ``snap_recover``) starts over instead of pinning
#: every value it ever drew.
VALUE_CACHE_BYTES = 16 * 1024 * 1024

#: ``(key, size, fraction)`` -> value; workloads revisit a small key
#: set constantly
_value_cache = BoundedMemo(VALUE_CACHE_BYTES)


def make_key(index: int, width: int = 8) -> bytes:
    """Fixed-width binary key for a record index."""
    return index.to_bytes(width, "big")


def _template_pool(size: int, incompressible_fraction: float) -> list[bytes]:
    # one rounded fraction keys the pool and sizes its random span, so
    # the pool a fraction gets does not depend on which caller built it
    fraction = round(incompressible_fraction, 3)
    key = (size, fraction)
    pool = _templates.get(key)
    if pool is None:
        rng = np.random.default_rng(0xC0FFEE)
        pool = []
        n_random = int(size * fraction)
        for _ in range(_TEMPLATE_POOL_SIZE):
            rand = rng.integers(0, 256, size=n_random, dtype=np.uint8).tobytes()
            filler_byte = bytes([int(rng.integers(0, 256))])
            pool.append(rand + filler_byte * (size - n_random))
        _templates[key] = pool
    return pool


def make_value(key: bytes, size: int,
               incompressible_fraction: float = 0.6) -> bytes:
    """Deterministic value for ``key``: header + pooled template body.

    ``incompressible_fraction`` tunes the zlib ratio; 0.6 gives ≈ 0.65,
    0.0 gives highly compressible data, 1.0 nearly incompressible; it
    is rounded to 3 decimals. Results are cached up to
    :data:`VALUE_CACHE_BYTES` of values, so a repeat call may return
    the identical object, and a value larger than the bound is built
    afresh on every call.
    """
    if size < 1:
        raise ValueError("value size must be >= 1")
    cache_key = (key, size, incompressible_fraction)
    value = _value_cache.get(cache_key)
    if value is not None:
        return value
    digest = hashlib.blake2b(key, digest_size=8).digest()
    header = digest + struct.pack("<I", size)
    if size <= len(header):
        value = header[:size]
    else:
        pool = _template_pool(size, incompressible_fraction)
        template = pool[digest[0] % _TEMPLATE_POOL_SIZE]
        value = (header + template)[:size]
    _value_cache.store(cache_key, value, len(value))
    return value


class UniformKeys:
    """Uniform key indices over [0, key_count)."""

    def __init__(self, key_count: int, seed: int = 1):
        if key_count < 1:
            raise ValueError("key_count must be >= 1")
        self.key_count = key_count
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int) -> np.ndarray:
        return self._rng.integers(0, self.key_count, size=n, dtype=np.int64)


class ZipfianKeys:
    """YCSB's zipfian generator over [0, key_count).

    Hot items are scattered across the key space (as YCSB does with its
    hash-scramble) so the head of the distribution isn't just the first
    insertions.
    """

    def __init__(self, key_count: int, theta: float = 0.99, seed: int = 1):
        if key_count < 1:
            raise ValueError("key_count must be >= 1")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.key_count = key_count
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        n = key_count
        # zeta(n, theta) — vectorized
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zetan = float(np.sum(1.0 / np.power(ranks, theta)))
        self._zeta2 = float(np.sum(1.0 / np.power(ranks[:2], theta))) if n >= 2 \
            else self._zetan
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)
        # scramble table for hot-item scatter
        self._perm = np.random.default_rng(seed ^ 0x5EED).permutation(n)

    def draw(self, n: int) -> np.ndarray:
        # popularity ranks (0 = hottest), then the hot-item scramble
        u = self._rng.random(n)
        uz = u * self._zetan
        ranks = np.empty(n, dtype=np.int64)
        m1 = uz < 1.0
        m2 = (~m1) & (uz < 1.0 + 0.5**self.theta)
        m3 = ~(m1 | m2)
        ranks[m1] = 0
        ranks[m2] = 1
        ranks[m3] = (
            self.key_count
            * np.power(self._eta * u[m3] - self._eta + 1.0, self._alpha)
        ).astype(np.int64)
        np.clip(ranks, 0, self.key_count - 1, out=ranks)
        return self._perm[ranks]
