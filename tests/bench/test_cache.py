"""The on-disk result cache: keying, roundtrip, corruption recovery."""

from __future__ import annotations

from dataclasses import replace

from repro.bench import cache
from repro.bench.harness import EXPERIMENT_FIELDS
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
    # a grid point's measurement dict: the same entry format as a report
    key = cache.cache_key("grid", TEST_SCALE, {"a": 1})
    assert cache.load(key, tmp_path) is None  # cold miss
    values = {"rps": 123.5, "waf": 1.0, "pid_mode": "collapse"}
    path = cache.store(key, "grid", values, tmp_path)
    assert cache.load(key, tmp_path) == values

    path.write_text("{not json")
    assert cache.load(key, tmp_path) is None
    assert not path.exists()  # removed so the recompute can overwrite

    # checksum mismatch (silent bit rot) is also a miss
    cache.store(key, "grid", values, tmp_path)
    payload = path.read_text().replace("123.5", "999.9")
    path.write_text(payload)
    assert cache.load(key, tmp_path) is None

    cache.store(key, "grid", values, tmp_path)
    assert cache.load(key, tmp_path) == values


def test_key_changes_with_code_digest(monkeypatch):
    k1 = cache.cache_key("table3", TEST_SCALE)
    monkeypatch.setattr(cache, "_code_digest", "different-tree")
    assert cache.cache_key("table3", TEST_SCALE) != k1


REPORT = {"report": "report body\n", "shapes_hold": True}


def test_roundtrip(tmp_path):
    key = cache.cache_key("table1", TEST_SCALE)
    assert cache.load(key, tmp_path) is None  # cold miss
    cache.store(key, "table1", REPORT, tmp_path)
    assert cache.load(key, tmp_path, EXPERIMENT_FIELDS) == REPORT
    assert list(tmp_path.iterdir()) == [tmp_path / f"{key}.json"]


def test_corrupt_entry_is_discarded(tmp_path):
    key = cache.cache_key("table1", TEST_SCALE)
    failed = {"report": "report body\n", "shapes_hold": False}
    path = cache.store(key, "table1", failed, tmp_path)

    path.write_text("{not json")
    assert cache.load(key, tmp_path) is None
    assert not path.exists()  # removed so the recompute can overwrite

    # checksum mismatch (silent bit rot) is also a miss
    cache.store(key, "table1", failed, tmp_path)
    payload = path.read_text().replace("report body", "tampered bod")
    path.write_text(payload)
    assert cache.load(key, tmp_path) is None

    # and the slot is reusable afterwards
    cache.store(key, "table1", REPORT, tmp_path)
    assert cache.load(key, tmp_path) == REPORT


def test_mistyped_payload_is_a_miss(tmp_path):
    # checksum-valid but the wrong shape for a report: a hit would hand
    # the CLI a non-string report, so it must count as corrupt
    key = cache.cache_key("table1", TEST_SCALE)
    path = cache.store(key, "table1", {"report": 7, "shapes_hold": True},
                       tmp_path)
    assert cache.load(key, tmp_path) == {"report": 7, "shapes_hold": True}
    assert cache.load(key, tmp_path, EXPERIMENT_FIELDS) is None
    assert not path.exists()
    cache.store(key, "table1", {"report": "x"}, tmp_path)  # missing field
    assert cache.load(key, tmp_path, EXPERIMENT_FIELDS) is None


def test_directory_squatting_on_an_entry_is_a_miss(tmp_path):
    # regression: the corrupt-entry cleanup unlinked the path, which
    # raises on a directory instead of reporting a miss
    key = cache.cache_key("table1", TEST_SCALE)
    (tmp_path / f"{key}.json").mkdir()
    assert cache.load(key, tmp_path) is None


def test_concurrent_writers_of_one_key_do_not_collide(tmp_path):
    # regression: every writer staged through the same "<key>.tmp", so
    # two processes storing one key could rename each other's file away
    # (FileNotFoundError) or, with a stale directory there, never write
    key = cache.cache_key("table1", TEST_SCALE)
    (tmp_path / f"{key}.tmp").mkdir()  # what a crashed writer left
    cache.store(key, "table1", REPORT, tmp_path)
    cache.store(key, "table1", REPORT, tmp_path)
    assert cache.load(key, tmp_path) == REPORT
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{key}.json", f"{key}.tmp"]
