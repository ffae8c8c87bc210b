"""Hostile bytes in the result cache: a miss, never a wrong hit.

A cache entry is a parser input like any other on-disk format here: a
disk mishap, an interrupted write or a hand edit can leave anything in
``out/cache/<key>.json``. Whatever it holds, ``load`` must either
return exactly the payload that was stored or report a miss (and
delete the entry) — never raise, never hand back something else.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import cache
from repro.bench.harness import EXPERIMENT_FIELDS
from repro.bench.scales import TEST_SCALE

KEY = cache.cache_key("fuzz", TEST_SCALE, {"p": 1})

_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False) | st.text(max_size=12))
_json = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=12,
)
_payloads = st.dictionaries(st.text(max_size=10), _json_scalars,
                            max_size=6)


def _load_from(raw: bytes, fields=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{KEY}.json"
        path.write_bytes(raw)
        got = cache.load(KEY, tmp, fields)
        if got is None:
            assert not path.exists()  # a miss clears the slot
        return got


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_arbitrary_bytes_never_raise(raw):
    got = _load_from(raw)
    assert got is None or isinstance(got, dict)


@settings(max_examples=300, deadline=None)
@given(_payloads, st.data())
def test_damaged_entry_is_a_miss_or_the_stored_payload(payload, data):
    with tempfile.TemporaryDirectory() as tmp:
        raw = cache.store(KEY, "fuzz", payload, tmp).read_bytes()
    pos = data.draw(st.integers(0, max(len(raw) - 1, 0)))
    damage = data.draw(st.sampled_from(("flip", "truncate", "insert")))
    if damage == "flip":
        bit = data.draw(st.integers(0, 7))
        raw = raw[:pos] + bytes([raw[pos] ^ (1 << bit)]) + raw[pos + 1:]
    elif damage == "truncate":
        raw = raw[:pos]
    else:
        raw = raw[:pos] + data.draw(st.binary(min_size=1, max_size=4)) \
            + raw[pos:]
    got = _load_from(raw)
    assert got is None or got == payload


@settings(max_examples=300, deadline=None)
@given(_json, st.booleans())
def test_checksum_valid_entry_of_any_shape(payload, as_report):
    # a well-formed envelope around an arbitrary JSON value: only a
    # JSON object (of the report shape, when fields demand it) loads
    entry = {"experiment": "fuzz", "payload": payload,
             "sha256": cache._checksum(payload)}
    fields = EXPERIMENT_FIELDS if as_report else None
    got = _load_from(json.dumps(entry).encode(), fields)
    if not isinstance(payload, dict):
        assert got is None
    elif as_report and not (isinstance(payload.get("report"), str)
                            and isinstance(payload.get("shapes_hold"),
                                           bool)):
        assert got is None
    else:
        assert got == payload


def test_deep_nesting_is_a_miss():
    assert _load_from(b"[" * 100_000) is None
