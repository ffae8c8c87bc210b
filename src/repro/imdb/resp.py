"""RESP2 — the REdis Serialization Protocol.

The wire format real clients speak. The closed-loop clients call the
server API directly; the open-loop front end (:mod:`repro.net`) sends
every command through this codec, decodes each frame into a
:class:`~repro.imdb.server.ClientOp` and encodes the reply. Only the
``SET key value`` / ``GET key`` / ``DEL key`` forms map to a command;
any other word list is a :class:`ProtocolError`.

Implemented: simple strings (``+``), errors (``-``), integers (``:``),
bulk strings (``$``, including null), arrays (``*``, including null),
and the inline-command form. Streaming-safe: the parser reports "need
more bytes" instead of failing on a partial buffer.
"""

from __future__ import annotations


from repro.imdb.server import ClientOp

__all__ = [
    "RespError",
    "ProtocolError",
    "encode",
    "decode",
    "encode_command",
    "decode_command",
    "op_from_command",
    "RespParser",
]

CRLF = b"\r\n"

#: internal sentinel: a consumed-but-empty inline line (blank line
#: between commands); never surfaced by :meth:`RespParser.parse`
_SKIP = object()


class ProtocolError(Exception):
    """Malformed RESP input."""


class RespError:
    """A RESP error reply (``-ERR ...``)."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other) -> bool:
        return isinstance(other, RespError) and other.message == self.message

    def __hash__(self) -> int:
        return hash(("RespError", self.message))

    def __repr__(self) -> str:
        return f"RespError({self.message!r})"


RespValue = None | int | bytes | str | list | RespError


def encode(value: RespValue) -> bytes:
    """Serialize one RESP value.

    Python mapping: ``str`` → simple string, ``bytes`` → bulk string,
    ``int`` → integer, ``None`` → null bulk, ``list`` → array,
    :class:`RespError` → error.
    """
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, RespError):
        if "\r" in value.message or "\n" in value.message:
            raise ProtocolError("error messages cannot contain CR/LF")
        return b"-" + value.message.encode() + CRLF
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ProtocolError("booleans are not a RESP2 type")
    if isinstance(value, int):
        return b":" + str(value).encode() + CRLF
    if isinstance(value, str):
        if "\r" in value or "\n" in value:
            raise ProtocolError("simple strings cannot contain CR/LF")
        return b"+" + value.encode() + CRLF
    if isinstance(value, (bytes, bytearray)):
        payload = bytes(value)
        return b"$" + str(len(payload)).encode() + CRLF + payload + CRLF
    if isinstance(value, list):
        out = b"*" + str(len(value)).encode() + CRLF
        return out + b"".join(encode(v) for v in value)
    raise ProtocolError(f"cannot encode {type(value).__name__}")


class RespParser:
    """Incremental parser: feed bytes, pop complete values."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def parse(self) -> tuple[bool, RespValue]:
        """Try to pop one value; returns (complete, value)."""
        while True:
            got = self._parse_at(0)
            if got is None:
                return False, None
            value, end = got
            del self._buf[:end]
            if value is _SKIP:
                continue  # blank inline line: consumed, try again
            return True, value

    # -- internals ---------------------------------------------------------
    def _parse_at(self, pos: int) -> tuple[RespValue, int] | None:
        if pos >= len(self._buf):
            return None
        kind = self._buf[pos:pos + 1]
        if kind in (b"\r", b"\n"):
            # A blank line between commands (Redis tolerates these in
            # inline mode). It must be consumed *before* the generic
            # header scan below: otherwise the leading CRLF would be
            # folded into the next frame's header and a typed frame
            # following it ("\r\n*1\r\n...") would be mis-framed as a
            # bogus inline command.
            if kind == b"\n":
                return _SKIP, pos + 1
            if pos + 1 >= len(self._buf):
                return None  # may be the first half of a CRLF
            if self._buf[pos + 1:pos + 2] != b"\n":
                raise ProtocolError("bare CR in inline command")
            return _SKIP, pos + 2
        if kind not in (b"+", b"-", b":", b"$", b"*"):
            # inline command: a bare line of space-separated words.
            # Inline mode is line-oriented, and real clients may send
            # bare-LF line endings, so the terminator is the first LF
            # (with an optional CR stripped) — unlike typed frames,
            # which require a strict CRLF.
            nl = self._buf.find(b"\n", pos)
            if nl < 0:
                return None
            line = bytes(self._buf[pos:nl])
            if line.endswith(b"\r"):
                line = line[:-1]
            words = [bytes(w) for w in line.split()]
            if not words:
                return _SKIP, nl + 1  # whitespace-only line
            return words, nl + 1
        if kind == b"$":
            return self._bulk_at(pos)
        eol = self._buf.find(CRLF, pos + 1)
        if eol < 0:
            return None
        header = bytes(self._buf[pos + 1:eol])
        body_start = eol + 2
        if kind == b"+":
            return header.decode("latin-1"), body_start
        if kind == b"-":
            return RespError(header.decode("latin-1")), body_start
        if kind == b":":
            try:
                return int(header), body_start
            except ValueError as exc:
                raise ProtocolError(f"bad integer {header!r}") from exc
        # kind == b"*"
        try:
            n = int(header)
        except ValueError as exc:
            raise ProtocolError(f"bad array length {header!r}") from exc
        if n == -1:
            return None, body_start  # null array
        if n < 0:
            raise ProtocolError("negative array length")
        buf = self._buf
        items: list[RespValue] = []
        cursor = body_start
        while len(items) < n:
            # a command is an array of bulk strings: frame those here,
            # in one pass, and recurse only for anything else
            if buf[cursor:cursor + 1] == b"$":
                got = self._bulk_at(cursor)
            else:
                got = self._parse_at(cursor)
            if got is None:
                return None
            item, cursor = got
            if item is not _SKIP:  # tolerate stray blank lines
                items.append(item)
        return items, cursor

    def _bulk_at(self, pos: int) -> tuple[RespValue, int] | None:
        """The bulk string whose ``$`` sits at ``pos``."""
        buf = self._buf
        eol = buf.find(CRLF, pos + 1)
        if eol < 0:
            return None
        header = bytes(buf[pos + 1:eol])
        body_start = eol + 2
        try:
            n = int(header)
        except ValueError as exc:
            raise ProtocolError(f"bad bulk length {header!r}") from exc
        if n == -1:
            return None, body_start  # null bulk
        if n < 0:
            raise ProtocolError("negative bulk length")
        end = body_start + n + 2
        if len(buf) < end:
            return None
        if buf[body_start + n:end] != CRLF:
            raise ProtocolError("bulk string not CRLF-terminated")
        return bytes(buf[body_start:body_start + n]), end


def decode(data: bytes) -> RespValue:
    """Parse exactly one complete value (convenience for tests)."""
    p = RespParser()
    p.feed(data)
    ok, value = p.parse()
    if not ok:
        raise ProtocolError("incomplete RESP value")
    if p.pending_bytes:
        raise ProtocolError(f"{p.pending_bytes} trailing bytes")
    return value


# ---------------------------------------------------------------------------
# command <-> ClientOp
# ---------------------------------------------------------------------------

def encode_command(op: ClientOp) -> bytes:
    """A ClientOp as the RESP array a client would send."""
    if op.op == "SET":
        words = [b"SET", op.key, op.value]
    elif op.op == "GET":
        words = [b"GET", op.key]
    else:
        words = [b"DEL", op.key]
    parts = [b"*%d\r\n" % len(words)]
    for w in words:
        parts += (b"$%d\r\n" % len(w), w, CRLF)
    return b"".join(parts)


def decode_command(data: bytes) -> ClientOp:
    """One RESP command array → ClientOp (SET/GET/DEL subset)."""
    return op_from_command(decode(data))


def op_from_command(value: RespValue) -> ClientOp:
    """An already-parsed command (array or inline word list) → ClientOp.

    The connection layer parses frames incrementally with
    :class:`RespParser` and maps each one through here.
    """
    if not isinstance(value, list) or not value:
        raise ProtocolError("command must be a non-empty array")
    words = [v if isinstance(v, bytes) else str(v).encode() for v in value]
    name = words[0].upper()
    if name == b"GET" and len(words) == 2:
        return ClientOp("GET", words[1])
    if name == b"DEL" and len(words) == 2:
        return ClientOp("DEL", words[1])
    if name == b"SET" and len(words) == 3:
        return ClientOp("SET", words[1], words[2])
    raise ProtocolError(f"unsupported command {name!r}/{len(words)}")
