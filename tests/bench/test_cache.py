"""The on-disk result cache: keying, roundtrip, corruption recovery."""

from __future__ import annotations

from dataclasses import replace

from repro.bench import cache
from repro.bench.scales import TEST_SCALE, BENCH_SCALE


def test_key_is_stable_and_input_sensitive():
    k1 = cache.cache_key("table3", TEST_SCALE)
    assert k1 == cache.cache_key("table3", TEST_SCALE)
    assert k1 != cache.cache_key("table4", TEST_SCALE)
    assert k1 != cache.cache_key("table3", BENCH_SCALE)
    # any scale-field change must miss: every field is part of what
    # a cached result claims to represent
    assert k1 != cache.cache_key("table3",
                                 replace(TEST_SCALE, sanitize=True))


def test_key_params_prevent_sweep_point_collisions():
    # regression: sweep points were keyed on (experiment, scale) only,
    # so every point of a grid collided on one cache slot and the
    # first point's measurements were replayed for all of them
    base = cache.cache_key("cluster", TEST_SCALE)
    p1 = cache.cache_key("cluster", TEST_SCALE, {"ru_pages": 4})
    p2 = cache.cache_key("cluster", TEST_SCALE, {"ru_pages": 8})
    assert len({base, p1, p2}) == 3
    # a params-free report and an empty parameter dict are different
    # cells too — {} must not alias the whole-experiment entry
    assert cache.cache_key("cluster", TEST_SCALE, {}) != base
    # key order is irrelevant; the assignment is what matters
    a = cache.cache_key("cluster", TEST_SCALE, {"x": 1, "y": 2})
    b = cache.cache_key("cluster", TEST_SCALE, {"y": 2, "x": 1})
    assert a == b
    # same params, different experiment or scale still miss
    assert p1 != cache.cache_key("single", TEST_SCALE, {"ru_pages": 4})
    assert p1 != cache.cache_key("cluster", BENCH_SCALE, {"ru_pages": 4})


def test_values_roundtrip_and_corruption(tmp_path):
    key = cache.cache_key("grid", TEST_SCALE, {"a": 1})
    assert cache.load_values(key, tmp_path) is None  # cold miss
    values = {"rps": 123.5, "waf": 1.0, "pid_mode": "collapse"}
    path = cache.store_values(key, "grid", values, tmp_path)
    assert cache.load_values(key, tmp_path) == values

    path.write_text("{not json")
    assert cache.load_values(key, tmp_path) is None
    assert not path.exists()  # removed so the recompute can overwrite

    # checksum mismatch (silent bit rot) is also a miss
    cache.store_values(key, "grid", values, tmp_path)
    payload = path.read_text().replace("123.5", "999.9")
    path.write_text(payload)
    assert cache.load_values(key, tmp_path) is None

    cache.store_values(key, "grid", values, tmp_path)
    assert cache.load_values(key, tmp_path) == values


def test_key_changes_with_code_digest(monkeypatch):
    k1 = cache.cache_key("table3", TEST_SCALE)
    monkeypatch.setattr(cache, "_code_digest", "different-tree")
    assert cache.cache_key("table3", TEST_SCALE) != k1


def test_roundtrip(tmp_path):
    key = cache.cache_key("table1", TEST_SCALE)
    assert cache.load(key, tmp_path) is None  # cold miss
    cache.store(key, "table1", "report body\n", True, tmp_path)
    assert cache.load(key, tmp_path) == ("report body\n", True)


def test_corrupt_entry_is_discarded(tmp_path):
    key = cache.cache_key("table1", TEST_SCALE)
    path = cache.store(key, "table1", "report body\n", False, tmp_path)

    path.write_text("{not json")
    assert cache.load(key, tmp_path) is None
    assert not path.exists()  # removed so the recompute can overwrite

    # checksum mismatch (silent bit rot) is also a miss
    cache.store(key, "table1", "report body\n", False, tmp_path)
    payload = path.read_text().replace("report body", "tampered bod")
    path.write_text(payload)
    assert cache.load(key, tmp_path) is None

    # and the slot is reusable afterwards
    cache.store(key, "table1", "report body\n", True, tmp_path)
    assert cache.load(key, tmp_path) == ("report body\n", True)
