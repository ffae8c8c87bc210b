"""Property-style streaming tests for the RESP2 codec.

The connection layer feeds the parser arbitrary fragments — a frame
can be split at *any* byte boundary, including inside a CRLF, inside a
bulk-length header, or between array items.  These tests take a corpus
of frames covering every type (plus the nasty shapes: binary payloads
containing CRLF, null bulk/array, nesting, inline commands, blank
lines) and push every encoded frame through the parser split at every
possible boundary, asserting the reassembled value round-trips.
"""

import pytest

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

# every RESP2 type, with the edge shapes a real byte stream produces
CORPUS = [
    "OK",
    "",
    RespError("ERR unknown command"),
    RespError("BUSY server overloaded"),
    0,
    -1,
    12345678901234567890,
    b"",
    b"x",
    b"hello world",
    b"\r\n",                       # binary payload that *is* a CRLF
    b"a\r\nb\rc\nd",               # CRLF/CR/LF embedded in a bulk body
    b"\x00\xff" * 33,              # arbitrary binary, crosses len 10
    None,                          # null bulk
    [],
    [b"PING"],
    [b"SET", b"k", b"v"],
    [1, "two", b"three", None],
    [[b"a", 1], [], [None, [b"deep", RespError("e")]]],
    [b"lens", b"9", b"10", b"11"],  # numeric-looking bulk strings
]


def _pairwise_splits(data: bytes):
    """Yield (head, tail) for every split point, plus whole-buffer."""
    for cut in range(len(data) + 1):
        yield data[:cut], data[cut:]


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_every_split_boundary_reassembles(value):
    data = encode(value)
    for head, tail in _pairwise_splits(data):
        p = RespParser()
        got = []
        for chunk in (head, tail):
            p.feed(chunk)
            while True:
                ok, v = p.parse()
                if not ok:
                    break
                got.append(v)
            if got and chunk is head:
                # a prefix may only complete if it is the whole frame
                assert head == data
        assert got == [value]
        assert p.pending_bytes == 0


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_byte_at_a_time(value):
    data = encode(value)
    p = RespParser()
    completions = []
    for i in range(len(data)):
        p.feed(data[i:i + 1])
        ok, got = p.parse()
        if ok:
            completions.append((i, got))
    assert completions == [(len(data) - 1, value)]


@pytest.mark.parametrize("value", CORPUS, ids=repr)
def test_round_trip(value):
    assert decode(encode(value)) == value


def test_back_to_back_frames_split_everywhere():
    """Two frames in one stream: every split must produce exactly the
    two values, in order, with nothing left over."""
    pairs = [
        (CORPUS[i], CORPUS[(i * 7 + 3) % len(CORPUS)])
        for i in range(len(CORPUS))
    ]
    for a, b in pairs:
        data = encode(a) + encode(b)
        for head, tail in _pairwise_splits(data):
            p = RespParser()
            got = []
            for chunk in (head, tail):
                p.feed(chunk)
                while True:
                    ok, v = p.parse()
                    if not ok:
                        break
                    got.append(v)
            assert got == [a, b]
            assert p.pending_bytes == 0


# -- inline commands and blank-line tolerance ------------------------------

INLINE_CASES = [
    (b"PING\r\n", [b"PING"]),
    (b"P\r\n", [b"P"]),                       # single-char command
    (b"SET k v\r\n", [b"SET", b"k", b"v"]),
    (b"  GET   key  \r\n", [b"GET", b"key"]),  # extra whitespace
    (b"GET key\n", [b"GET", b"key"]),          # bare-LF line ending
]


@pytest.mark.parametrize("raw,words", INLINE_CASES, ids=lambda x: repr(x))
def test_inline_commands_parse(raw, words):
    p = RespParser()
    p.feed(raw)
    ok, got = p.parse()
    assert ok and got == words
    assert p.pending_bytes == 0


@pytest.mark.parametrize("prefix", [b"\r\n", b"\n", b"\r\n\r\n", b"   \r\n"],
                         ids=repr)
def test_blank_lines_before_frames_are_skipped(prefix):
    """Redis tolerates blank lines between inline commands; they must
    not be folded into the next frame's header."""
    for value in (CORPUS[16], b"payload", [b"PING"]):
        data = prefix + encode(value)
        for head, tail in _pairwise_splits(data):
            p = RespParser()
            got = []
            for chunk in (head, tail):
                p.feed(chunk)
                while True:
                    ok, v = p.parse()
                    if not ok:
                        break
                    got.append(v)
            assert got == [value]
            assert p.pending_bytes == 0


def test_blank_line_then_inline():
    p = RespParser()
    p.feed(b"\r\nPING\r\n")
    ok, got = p.parse()
    assert ok and got == [b"PING"]


def test_bare_cr_inside_inline_is_an_error():
    p = RespParser()
    p.feed(b"\rX")
    with pytest.raises(ProtocolError):
        p.parse()


def test_half_crlf_waits_for_more():
    p = RespParser()
    p.feed(b"\r")
    ok, _ = p.parse()
    assert not ok                # could be the first half of a CRLF
    p.feed(b"\n+OK\r\n")
    ok, got = p.parse()
    assert ok and got == "OK"


# -- malformed input -------------------------------------------------------

@pytest.mark.parametrize("raw", [
    b":notanint\r\n",
    b"$x\r\n",
    b"$-2\r\n",
    b"*-2\r\n",
    b"*x\r\n",
    b"$3\r\nabcXY",               # bulk body not CRLF-terminated
], ids=repr)
def test_malformed_frames_raise(raw):
    p = RespParser()
    p.feed(raw)
    with pytest.raises(ProtocolError):
        p.parse()


# Byte streams (valid, malformed and mixed) with the transcript the
# parser produced before the bulk-string branch became ``_bulk_at`` and
# arrays stopped recursing for ``$`` items: values popped in order, then
# the ProtocolError message that ended the stream (None: ran dry).
PINNED_STREAMS = [
    (b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
     ([[b"SET", b"k", b"v"]], None)),
    (b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\na\r\nb\r\n"
     b"$2\r\nPX\r\n$3\r\n250\r\n",
     ([[b"SET", b"k", b"a\r\nb", b"PX", b"250"]], None)),
    (b"*2\r\n$3\r\nGET\r\n$-1\r\n",            # null bulk as an item
     ([[b"GET", None]], None)),
    (b"*2\r\n\r\n$1\r\na\r\n\n:5\r\n",          # blank lines between items
     ([[b"a", 5]], None)),
    (b"*2\r\n*1\r\n$1\r\na\r\n+x\r\n",           # nested array, then simple
     ([[[b"a"], "x"]], None)),
    (b"*2\r\n$3\r\nGET\r\nfoo bar\r\n",          # inline line as an item
     ([[b"GET", [b"foo", b"bar"]]], None)),
    (b"*0\r\n+after\r\n",
     ([[], "after"], None)),
    (b"*-1\r\n$-1\r\n",                          # null array, null bulk
     ([None, None], None)),
    (b"+OK\r\n*1\r\n$4\r\nPING\r\nGET k\n\r\n$2\r\nhi\r\n",
     (["OK", [b"PING"], [b"GET", b"k"], b"hi"], None)),
    (b"  \r\n*1\r\n$1\r\na\r\n",                  # whitespace-only line first
     ([[b"a"]], None)),
    (b"*1\r\n$x\r\n",
     ([], "bad bulk length b'x'")),
    (b"*1\r\n$-2\r\n",
     ([], "negative bulk length")),
    (b"*2\r\n$1\r\na\r\n$1\r\nab\r\n",
     ([], "bulk string not CRLF-terminated")),
    (b"*1\r\n:zz\r\n",
     ([], "bad integer b'zz'")),
    (b"*1\r\n*-2\r\n",
     ([], "negative array length")),
    (b"*x\r\n",
     ([], "bad array length b'x'")),
    (b"*-2\r\n",
     ([], "negative array length")),
    (b"$x\r\n",
     ([], "bad bulk length b'x'")),
    (b"$-2\r\n",
     ([], "negative bulk length")),
    (b"$3\r\nabcXY",
     ([], "bulk string not CRLF-terminated")),
    (b":notanint\r\n",
     ([], "bad integer b'notanint'")),
    (b"+ok\r\n\rX",
     (["ok"], "bare CR in inline command")),
    (b"*2\r\n$1\r\na\r\n\rX",
     ([], "bare CR in inline command")),
]


def _transcript(chunks):
    p = RespParser()
    values = []
    for chunk in chunks:
        p.feed(chunk)
        try:
            while True:
                ok, v = p.parse()
                if not ok:
                    break
                values.append(v)
        except ProtocolError as exc:
            return values, str(exc)
    return values, None


@pytest.mark.parametrize("raw,expected", PINNED_STREAMS,
                         ids=[repr(raw) for raw, _ in PINNED_STREAMS])
def test_pinned_transcript_at_every_split(raw, expected):
    """Wherever the stream is cut — and byte by byte — the same values
    come out in the same order and the same error ends it."""
    for head, tail in _pairwise_splits(raw):
        assert _transcript([head, tail]) == expected
    assert _transcript([raw[i:i + 1] for i in range(len(raw))]) == expected


def test_trailing_bytes_rejected_by_decode():
    with pytest.raises(ProtocolError):
        decode(encode(1) + b"x")


# -- command mapping -------------------------------------------------------

OPS = [
    ClientOp("SET", b"k", b"v"),
    ClientOp("SET", b"k", b"\r\n" * 8),
    ClientOp("SET", b"", b""),
    ClientOp("GET", b"key"),
    ClientOp("DEL", b"key"),
]


def test_command_wire_bytes_are_pinned():
    """The frames ``encode_command`` builds, byte for byte."""
    assert [encode_command(op) for op in OPS] == [
        b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
        b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$16\r\n" + b"\r\n" * 9,
        b"*3\r\n$3\r\nSET\r\n$0\r\n\r\n$0\r\n\r\n",
        b"*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n",
        b"*2\r\n$3\r\nDEL\r\n$3\r\nkey\r\n",
    ]


@pytest.mark.parametrize("op", OPS, ids=lambda o: o.op)
def test_command_round_trip(op):
    assert decode_command(encode_command(op)) == op


@pytest.mark.parametrize("op", OPS, ids=lambda o: o.op)
def test_command_streams_at_every_split(op):
    data = encode_command(op)
    for head, tail in _pairwise_splits(data):
        p = RespParser()
        p.feed(head)
        p.feed(tail)
        ok, frame = p.parse()
        assert ok
        assert op_from_command(frame).key == op.key


def test_inline_maps_to_op():
    p = RespParser()
    p.feed(b"SET k v\r\n")
    ok, frame = p.parse()
    assert ok
    op = op_from_command(frame)
    assert (op.op, op.key, op.value) == ("SET", b"k", b"v")


def test_ex_flag_seconds():
    """SET takes no options: EX/PX are protocol errors, not expiry."""
    for words in ([b"SET", b"k", b"v", b"EX", b"2"],
                  [b"SET", b"k", b"v", b"PX", b"abc"],
                  [b"SET", b"k", b"v", b"PX", b"0"],
                  [b"SET", b"k", b"v", b"EX", b"-5"]):
        with pytest.raises(ProtocolError):
            op_from_command(words)


@pytest.mark.parametrize("bad", [
    [],
    [b"GET"],
    [b"GET", b"a", b"b"],
    [b"SET", b"k"],
    [b"SET", b"k", b"v", b"XX"],
    [b"FLUSHALL"],
    b"not-a-list",
], ids=repr)
def test_unsupported_commands_raise(bad):
    with pytest.raises(ProtocolError):
        op_from_command(bad)
