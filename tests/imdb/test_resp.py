"""RESP codec tests (unit + property)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.imdb import ClientOp
from repro.imdb.resp import (
    ProtocolError,
    RespError,
    RespParser,
    decode,
    decode_command,
    encode,
    encode_command,
    op_from_command,
)


# ------------------------------------------------------------------ encode
def test_encode_scalar_types():
    assert encode("OK") == b"+OK\r\n"
    assert encode(RespError("ERR nope")) == b"-ERR nope\r\n"
    assert encode(42) == b":42\r\n"
    assert encode(-7) == b":-7\r\n"
    assert encode(b"hi") == b"$2\r\nhi\r\n"
    assert encode(b"") == b"$0\r\n\r\n"
    assert encode(None) == b"$-1\r\n"


def test_encode_array():
    assert encode([b"a", 1, None]) == b"*3\r\n$1\r\na\r\n:1\r\n$-1\r\n"
    assert encode([]) == b"*0\r\n"


def test_encode_rejections():
    with pytest.raises(ProtocolError):
        encode("has\r\nnewline")
    with pytest.raises(ProtocolError):
        encode(RespError("bad\nmsg"))
    with pytest.raises(ProtocolError):
        encode(True)
    with pytest.raises(ProtocolError):
        encode(3.14)


# ------------------------------------------------------------------ decode
def test_decode_roundtrip_basics():
    for v in ("PONG", 0, 123, b"binary\x00bytes", None,
              [b"nested", [1, 2], None], RespError("ERR x")):
        assert decode(encode(v)) == v


def test_decode_null_array():
    assert decode(b"*-1\r\n") is None


def test_decode_incomplete_raises():
    with pytest.raises(ProtocolError, match="incomplete"):
        decode(b"$5\r\nhel")
    with pytest.raises(ProtocolError, match="trailing"):
        decode(b":1\r\n:2\r\n")


def test_decode_malformed():
    with pytest.raises(ProtocolError):
        decode(b":notanum\r\n")
    with pytest.raises(ProtocolError):
        decode(b"$-5\r\n")
    with pytest.raises(ProtocolError):
        decode(b"$3\r\nhelloXX\r\n")  # wrong terminator position


def test_inline_command():
    assert decode(b"PING\r\n") == [b"PING"]
    assert decode(b"SET k v\r\n") == [b"SET", b"k", b"v"]


# ------------------------------------------------------------------ streaming
def test_parser_handles_partial_feeds():
    p = RespParser()
    payload = encode([b"SET", b"key", b"value" * 100])
    for i in range(0, len(payload), 7):
        ok, _ = p.parse()
        assert not ok or i >= len(payload)
        p.feed(payload[i:i + 7])
    ok, value = p.parse()
    assert ok
    assert value == [b"SET", b"key", b"value" * 100]
    assert p.pending_bytes == 0


def test_parser_pops_multiple_values():
    p = RespParser()
    p.feed(encode(1) + encode(2) + encode(b"x"))
    got = []
    while True:
        ok, v = p.parse()
        if not ok:
            break
        got.append(v)
    assert got == [1, 2, b"x"]


# ------------------------------------------------------------------ commands
def test_command_roundtrip():
    for op in (ClientOp("SET", b"k", b"v"),
               ClientOp("GET", b"k"),
               ClientOp("DEL", b"k")):
        assert decode_command(encode_command(op)) == op


def test_decode_command_ex_flag():
    """No SET option is supported: EX/PX are rejected like any other
    trailing word."""
    for flag in (b"EX", b"PX"):
        with pytest.raises(ProtocolError):
            decode_command(encode([b"SET", b"k", b"v", flag, b"10"]))


def _words():
    """What the parser can hand ``op_from_command``: bulk bytes, ints,
    nulls, latin-1 simple strings, error replies and nested arrays."""
    name = st.sampled_from([b"SET", b"set", b"GET", b"DEL", b"PX", b"EX"])
    leaf = st.one_of(
        st.binary(max_size=8), name, st.integers(), st.none(),
        st.text(st.characters(max_codepoint=255), max_size=8),
        st.builds(RespError, st.text(max_size=8)),
    )
    nested = st.recursive(leaf, lambda inner: st.lists(inner, max_size=5),
                          max_leaves=12)
    # most draws start with a command name, so the SET/GET/DEL arity
    # and option branches are all reached
    command = st.builds(lambda n, rest: [n, *rest], name,
                        st.lists(nested, max_size=5))
    return st.one_of(command, nested)


@settings(max_examples=400, deadline=None)
@given(value=_words())
def test_op_from_command_only_raises_protocol_error(value):
    """Any parsed value is a ClientOp or a ProtocolError, never another
    exception that would escape the connection's reader."""
    try:
        op = op_from_command(value)
    except ProtocolError:
        return
    assert isinstance(op, ClientOp)
    assert decode_command(encode_command(op)) == op


def test_decode_command_rejections():
    with pytest.raises(ProtocolError):
        decode_command(encode([b"FLUSHALL"]))
    with pytest.raises(ProtocolError):
        decode_command(encode([b"SET", b"k", b"v", b"NX"]))
    with pytest.raises(ProtocolError):
        decode_command(encode(b"notanarray"))


# ------------------------------------------------------------------ properties
resp_values = st.recursive(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.binary(max_size=200),
        st.text(alphabet=st.characters(blacklist_characters="\r\n",
                                       min_codepoint=32, max_codepoint=126),
                max_size=50),
        st.builds(RespError,
                  st.text(alphabet=st.characters(
                      blacklist_characters="\r\n",
                      min_codepoint=32, max_codepoint=126), max_size=50)),
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=25,
)


@given(resp_values)
@settings(max_examples=150, deadline=None)
def test_property_roundtrip(value):
    assert decode(encode(value)) == value


@given(resp_values, st.integers(min_value=1, max_value=13))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_chunked(value, chunk):
    wire = encode(value)
    p = RespParser()
    result = None
    done = False
    for i in range(0, len(wire), chunk):
        p.feed(wire[i:i + chunk])
        ok, v = p.parse()
        if ok:
            assert not done, "value completed twice"
            result, done = v, True
    if not done:
        ok, result = p.parse()
        assert ok
    assert result == value


@given(st.binary(min_size=0, max_size=64),
       st.binary(min_size=0, max_size=256))
@settings(max_examples=80, deadline=None)
def test_property_set_command_roundtrip(key, value):
    op = ClientOp("SET", key, value)
    assert decode_command(encode_command(op)) == op
