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
