"""Op-stream tests: mixes and determinism."""

import pytest

from repro.imdb import ClientOp
from repro.net import MIXES, MixSpec, OpStream


def test_mix_validation():
    with pytest.raises(ValueError):
        MixSpec(read=0.5, update=0.2)  # sums to 0.7
    with pytest.raises(ValueError):
        MixSpec(read=1.0, update=0.5)  # sums to 1.5


def test_presets_cover_ycsb_core():
    assert set(MIXES) == {"ycsb_a", "ycsb_b"}
    assert MIXES["ycsb_a"] == MixSpec(read=0.5, update=0.5)
    assert MIXES["ycsb_b"] == MixSpec(read=0.95, update=0.05)


def test_groups_are_deterministic():
    a = OpStream(MIXES["ycsb_a"], 500, 200, seed=3)
    b = OpStream(MIXES["ycsb_a"], 500, 200, seed=3)
    assert all(x == y for g1, g2 in zip(a._groups, b._groups)
               for x, y in zip(g1, g2))
    assert len(a._groups) == 500


def test_mix_fractions_realized():
    s = OpStream(MIXES["ycsb_b"], 4_000, 500, seed=11)
    sets = sum(1 for g in s._groups if g[0].op == "SET")
    gets = sum(1 for g in s._groups if g[0].op == "GET")
    assert gets + sets == 4_000
    assert 0.03 < sets / 4_000 < 0.08  # nominal 5%


def test_group_wraps_modulo():
    s = OpStream(MixSpec(read=1.0), 10, 50, seed=1)
    assert s.group(10) == s.group(0)


def test_ops_are_client_ops():
    s = OpStream(MIXES["ycsb_a"], 50, 20, seed=1, value_size=64)
    for g in s._groups:
        for op in g:
            assert isinstance(op, ClientOp)
            if op.op == "SET":
                assert len(op.value) == 64
