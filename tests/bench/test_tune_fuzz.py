"""Hostile tuned-config JSON: round-trip exactly or raise a typed error.

A tuner recommendation is a deployment config loaded back from disk
(``config_from_jsonable`` / ``cluster_config_from_jsonable``), so it is
a parser input like any other: a hand edit or a stale schema can leave
anything in it. Whatever a payload holds, loading it must either build
a config that dumps back to exactly that payload, or raise
``ValueError`` / ``TypeError`` / ``KeyError`` — never another
exception, and never a config that silently differs from the file.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.tune import (
    cluster_config_from_jsonable,
    cluster_config_to_jsonable,
    config_from_jsonable,
    config_to_jsonable,
)
from repro.cluster import ClusterConfig
from repro.core import SystemConfig

SYSTEM = config_to_jsonable(SystemConfig())
CLUSTER = cluster_config_to_jsonable(ClusterConfig())

_hostile = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, -0.5,
                     0, True, None, "", "x", [], {}]),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _key_paths(d: dict, prefix: tuple = ()):
    """Every key path into ``d``, descending only through dicts."""
    for k, v in d.items():
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from _key_paths(v, prefix + (k,))


@st.composite
def _mutated(draw, base: dict) -> dict:
    payload = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = sorted(_key_paths(payload), key=repr)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = payload
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "add", "swap", "nest", "flatten"]))
        if op == "drop":
            del parent[key]
        elif op == "add":
            parent[draw(st.text(min_size=1, max_size=8))] = draw(_hostile)
        elif op == "swap":
            parent[key] = draw(_hostile)
        elif op == "nest":
            parent[key] = draw(st.sampled_from(
                [{key: parent[key]}, [parent[key]], copy.deepcopy(base)]))
        elif isinstance(parent[key], dict):  # flatten: hoist one level up
            inner = parent.pop(key)
            parent.update(inner)
        else:
            parent[key] = str(parent[key])
    return payload


def _roundtrips_or_raises(load, dump, payload) -> None:
    try:
        cfg = load(copy.deepcopy(payload))
    except (ValueError, TypeError, KeyError):
        return
    # NaN != NaN, so compare the JSON texts (NaN dumps as ``NaN``)
    assert json.dumps(dump(cfg), sort_keys=True) == \
        json.dumps(payload, sort_keys=True)


def test_pristine_payloads_roundtrip():
    _roundtrips_or_raises(config_from_jsonable, config_to_jsonable, SYSTEM)
    _roundtrips_or_raises(cluster_config_from_jsonable,
                          cluster_config_to_jsonable, CLUSTER)
    assert config_to_jsonable(config_from_jsonable(SYSTEM)) == SYSTEM


@settings(max_examples=400, deadline=None)
@given(_mutated(SYSTEM))
def test_system_config_loader_survives_hostile_payloads(payload):
    _roundtrips_or_raises(config_from_jsonable, config_to_jsonable, payload)


@settings(max_examples=300, deadline=None)
@given(_mutated(CLUSTER))
def test_cluster_config_loader_survives_hostile_payloads(payload):
    _roundtrips_or_raises(cluster_config_from_jsonable,
                          cluster_config_to_jsonable, payload)


@given(st.one_of(_hostile, st.lists(_hostile, max_size=3)))
def test_non_object_payloads_raise_typed_errors(payload):
    for load, dump in ((config_from_jsonable, config_to_jsonable),
                       (cluster_config_from_jsonable,
                        cluster_config_to_jsonable)):
        _roundtrips_or_raises(load, dump, payload)


# --- bad values in the fields a payload carries ------------------------


def _leaves(d: dict, prefix: tuple = ()):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _leaves(v, prefix + (k,))
        else:
            yield prefix + (k,), v


FLOAT_LEAVES = [path for path, v in _leaves(SYSTEM) if isinstance(v, float)]


def _with(payload: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(payload)
    parent = out
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return out


def test_every_float_leaf_is_covered():
    assert len(FLOAT_LEAVES) == 9
    assert ("nand", "page_read") in FLOAT_LEAVES
    assert ("snapshot_fraction",) in FLOAT_LEAVES


@pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "neg"])
@pytest.mark.parametrize("path", FLOAT_LEAVES, ids=".".join)
def test_a_bad_float_fails_at_load(path, bad):
    """NaN or -1 in any float field is refused while loading, not when
    (or after) a system is built from it."""
    with pytest.raises(ValueError, match=path[-1]):
        config_from_jsonable(_with(SYSTEM, path, bad))


# --- a recommendation in an older schema --------------------------------

US = 1e-6
#: keys an older tuner wrote that no config field carries any more,
#: with the values it wrote (settable calibration values that became
#: module constants, and the fault-injection flag)
STALE_KEYS = {
    ("costs",): {
        "syscall_overhead": 1.6 * US, "copy_bandwidth": 8.0 * 1024**3,
        "pagecache_page_op": 0.15 * US, "bio_submit_cost": 0.7 * US,
        "uring_sqe_prep": 0.10 * US, "uring_enter_cost": 1.2 * US,
        "sqpoll_pickup": 1.0 * US, "cqe_reap_cost": 0.10 * US,
        "context_switch": 1.2 * US},
    ("compression",): {"compress_bandwidth": 120 * 1024**2,
                       "decompress_bandwidth": 600 * 1024**2,
                       "per_object_overhead": 0.8e-6},
    ("faults",): False,
    ("fault_seed",): 20260807,
    ("server", "fork_model"): {"pt_copy_per_page": 0.06 * US,
                               "fault_overhead": 2.5 * US,
                               "page_copy_time": 1.2 * US},
    ("server", "snapshot_cpu"): {"serialize_bandwidth": 2.5 * 1024**3,
                                 "per_entry_overhead": 0.5e-6},
    ("ftl", "gc_copy_window"): 16,
}


@pytest.mark.parametrize("path", STALE_KEYS, ids=".".join)
def test_a_stale_key_is_named_at_load(path):
    with pytest.raises(TypeError,
                       match=f"unexpected keyword argument '{path[-1]}'"):
        config_from_jsonable(_with(SYSTEM, path, STALE_KEYS[path]))


def test_an_older_schema_recommendation_fails_to_load():
    """The whole older payload is refused with an error naming an
    unknown key; nothing is built from it."""
    payload = SYSTEM
    for path, value in STALE_KEYS.items():
        payload = _with(payload, path, value)
    with pytest.raises(TypeError, match="unexpected keyword") as info:
        config_from_jsonable(json.loads(json.dumps(payload)))
    named = str(info.value).split("'")[1]
    assert named in {path[-1] for path in STALE_KEYS}
