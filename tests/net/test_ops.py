"""Op-stream tests: mixes, scenario twists, determinism."""

import pytest

from repro.imdb import ClientOp
from repro.net import MIXES, MixSpec, OpStream


def _flat(stream):
    return [op for i in range(len(stream)) for op in stream.group(i)]


def test_mix_validation():
    with pytest.raises(ValueError):
        MixSpec(read=0.5, update=0.2)  # sums to 0.7
    with pytest.raises(ValueError):
        MixSpec(distribution="pareto")


def test_presets_cover_ycsb_core():
    assert set(MIXES) == {"ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d",
                          "ycsb_e", "ycsb_f"}
    assert MIXES["ycsb_c"].read == 1.0
    assert MIXES["ycsb_d"].distribution == "latest"


def test_groups_are_deterministic():
    a = OpStream(MIXES["ycsb_f"], 500, 200, seed=3)
    b = OpStream(MIXES["ycsb_f"], 500, 200, seed=3)
    assert all(x == y for g1, g2 in zip(a._groups, b._groups)
               for x, y in zip(g1, g2))
    assert len(a._groups) == 500


def test_mix_fractions_realized():
    s = OpStream(MIXES["ycsb_b"], 4_000, 500, seed=11)
    sets = sum(1 for g in s._groups if g[0].op == "SET")
    gets = sum(1 for g in s._groups if g[0].op == "GET")
    assert gets + sets == 4_000
    assert 0.03 < sets / 4_000 < 0.08  # nominal 5%


def test_rmw_groups_are_get_then_set_same_key():
    s = OpStream(MIXES["ycsb_f"], 1_000, 300, seed=5)
    rmw = [g for g in s._groups if len(g) == 2]
    assert rmw, "50% RMW mix produced no RMW groups"
    for get_op, set_op in rmw:
        assert get_op.op == "GET" and set_op.op == "SET"
        assert get_op.key == set_op.key


def test_scans_are_bounded_adjacent_multi_gets():
    s = OpStream(MIXES["ycsb_e"], 1_000, 300, seed=5)
    scans = [g for g in s._groups if len(g) > 1]
    assert scans
    for g in scans:
        assert len(g) <= MIXES["ycsb_e"].scan_max
        assert all(op.op == "GET" for op in g)


def test_inserts_extend_the_keyspace():
    s = OpStream(MIXES["ycsb_d"], 2_000, 100, seed=5)
    keys = {op.key for g in s._groups for op in g if op.op == "SET"}
    from repro.workloads import make_key
    fresh = [k for k in keys if k >= make_key(100)]
    assert fresh, "5% inserts never left the initial keyspace"


def test_hotspot_shift_changes_the_hot_set():
    plain = OpStream(MIXES["ycsb_a"], 2_000, 500, seed=7)
    shifted = OpStream(MIXES["ycsb_a"], 2_000, 500, seed=7,
                       hotspot_shift_at=1_000)
    # identical prefix, different suffix
    assert plain._groups[:1_000] == shifted._groups[:1_000] or all(
        a[0].key == b[0].key
        for a, b in zip(plain._groups[:1_000], shifted._groups[:1_000]))
    tail_same = sum(
        a[0].key == b[0].key
        for a, b in zip(plain._groups[1_000:], shifted._groups[1_000:]))
    assert tail_same < 500  # the hot set moved


def test_group_wraps_modulo():
    s = OpStream(MIXES["ycsb_c"], 10, 50, seed=1)
    assert s.group(10) == s.group(0)


def test_with_count_and_scaled_regenerate():
    s = OpStream(MIXES["ycsb_a"], 100, 50, seed=1)
    assert len(s.with_count(250)) == 250


def test_ops_are_client_ops():
    s = OpStream(MIXES["ycsb_a"], 50, 20, seed=1, value_size=64)
    for g in s._groups:
        for op in g:
            assert isinstance(op, ClientOp)
            if op.op == "SET":
                assert len(op.value) == 64
