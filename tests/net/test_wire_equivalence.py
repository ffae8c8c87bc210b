"""Differential oracles for the closed-form wire and the memoized reader.

``Connection.send`` delivers a command with one entry at the instant
its last fragment would have arrived.  The reference below is the
per-fragment sender it replaced — one timeout, one closed check and
one inbox put per ``fragment_bytes`` slice — kept here, and only here,
as the obviously-correct twin.  It runs as a process on the process
twin (``tests/net/twins.py``); so does that twin's own closed-form
sender, and the step-driven client of ``repro.net`` runs the same
schedule through ``run_open_loop``'s sessions.  Everything a client or
a report can observe must come out identical, and the twin and the
steps must move the clock through the same instants.  The second half
does the same for the reader: the step reader of ``repro.net`` against
the always-parse process reader it replaced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.frontend as frontend_mod
from repro.imdb import ClientOp
from repro.imdb.resp import (
    ProtocolError,
    RespParser,
    decode_command,
    encode_command,
    op_from_command,
)
from repro.net import BackpressurePolicy, NetConfig, NetFrontend
from repro.net.conn import _CLOSE, Connection
from repro.net.openloop import _Session
from repro.persist.memo import BoundedMemo
from repro.sim import Environment, Event
from tests.net import client as tcl
from tests.net import twins
from tests.net.twins import InstantLog, ProcessConnection, ProcessFrontend

SESSIONS = 4
GROUPS = 12          # per session
SPACING = 40e-6      # intended inter-arrival per session
LATE_BY = 300e-6     # the late session starts this far behind schedule
ONE_FRAGMENT = 64    # value bytes: a 93-ish byte SET
FIVE_FRAGMENTS = 2048  # value bytes: 4 full fragments + a 36-byte tail
DEFAULT_PARSE = NetConfig().parse_cpu  # well under one fragment time
SLOW_PARSE = 30e-6   # several fragment times: closes land mid-train


class FixedBackend:
    def __init__(self, env, service=50e-6):
        self.env = env
        self.service = service

    def execute(self, op):
        yield self.env.timeout(self.service)
        return b"v" if op.op == "GET" else True


def reference_send(conn, group, t_intended):
    """The per-fragment sender (the parent of the closed-form train)."""
    sent = 0
    for op in group:
        while conn._outstanding >= conn.cfg.pipeline_depth \
                and not conn.closed:
            if conn._window_ev is None:
                conn._window_ev = Event(conn.env)
            yield conn._window_ev
        if conn.closed:
            conn.fe.unsent += len(group) - sent
            return sent
        data = encode_command(op)
        conn._outstanding += 1
        conn._meta.append(t_intended)
        conn.fe.issued += 1
        bw = conn.client_bw
        frag = conn.cfg.fragment_bytes
        for i in range(0, len(data), frag):
            chunk = data[i:i + frag]
            yield conn.env.timeout(len(chunk) / bw)
            if conn.closed:
                conn.fe.unsent += len(group) - sent - 1
                return sent
            yield conn.inbox.put(chunk)
        sent += 1
    return sent


closed_form_send = ProcessConnection.send


def _group(session, i, value_bytes):
    """Mostly single SETs; every fourth slot is a GET+SET pair so the
    sender also crosses a command boundary inside one group."""
    key = b"s%d-%03d" % (session, i)
    op = ClientOp("SET", key, bytes([65 + session]) * value_bytes)
    return (ClientOp("GET", key), op) if i % 4 == 3 else (op,)


def drive(send, policy, slow_every, depth, value_bytes, parse_cpu):
    """SESSIONS reconnecting sessions, the last one behind schedule, into
    a backend a third as fast as the offered load: windows fill, queues
    overflow, and under DROP connections close under the senders.
    ``send`` is a process sender on the process twin, or ``None`` for
    the step-driven client of ``repro.net``."""
    with twins.logging_dispatches():
        env = InstantLog()
        cfg = NetConfig(policy=BackpressurePolicy(policy), conn_queue=4,
                        max_inflight=8, pipeline_depth=depth,
                        slow_every=slow_every, slow_factor=0.25,
                        parse_cpu=parse_cpu)
        fe = (NetFrontend if send is None else ProcessFrontend)(
            env, FixedBackend(env), cfg)
        sends = run_sessions(env, fe, send,
                             lambda s, i: _group(s, i, value_bytes))
    return fe, sends, env


class _Slots:
    """Schedule index ``i * SESSIONS + s`` is session ``s``'s slot ``i``:
    the open-loop sessions' round robin."""

    def __init__(self, group):
        self._group = group

    def group(self, j):
        return self._group(j % SESSIONS, j // SESSIONS)


def run_sessions(env, fe, send, group):
    """Drive ``group(session, slot)`` from SESSIONS reconnecting
    sessions for 50 ms, the last one starting LATE_BY behind; returns
    (session, slot, commands sent, return instant) per send.

    With ``send`` these are processes; without, they are
    ``run_open_loop``'s sessions (the late one built LATE_BY in)."""
    sends = []
    if send is None:
        return run_step_sessions(env, fe, group, sends)

    def session(s):
        if s == SESSIONS - 1:
            yield env.timeout(LATE_BY)
        conn = None
        for i in range(GROUPS):
            t_int = i * SPACING
            if env.now < t_int:
                yield env.timeout(t_int - env.now)
            while conn is None or conn.closed:
                conn = yield from twins.connect(fe.listener)
            sent = yield from send(conn, group(s, i), t_int)
            sends.append((s, i, sent, env.now))
        if not conn.closed:
            yield from conn.drain()
            yield from conn.close()

    for s in range(SESSIONS):
        env.process(session(s), name=f"session{s}")
    env.run(until=0.05)
    return sends


def run_step_sessions(env, fe, group, sends):
    """``run_sessions`` on ``run_open_loop``'s sessions, each send
    logged where the session goes on after its group."""
    times = np.repeat(np.arange(GROUPS) * SPACING, SESSIONS)
    stream = _Slots(group)
    done = _Session._sent

    def logged(session, n):
        sends.append((session._i % SESSIONS, session._i // SESSIONS, n,
                      env.now))
        done(session, n)

    def late():
        yield env.timeout(LATE_BY)
        _Session(fe, stream, times, range(SESSIONS - 1, len(times),
                                           SESSIONS), None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Session, "_sent", logged)
        for s in range(SESSIONS - 1):
            _Session(fe, stream, times, range(s, len(times), SESSIONS),
                     None)
        env.process(late(), name="late")
        env.run(until=0.05)
    return sends


@pytest.mark.parametrize(
    "policy,slow_every,depth,value_bytes,parse_cpu",
    list(itertools.product(("block", "shed", "drop"), (0, 1, 2),
                           (1, 8, 32), (ONE_FRAGMENT, FIVE_FRAGMENTS),
                           (DEFAULT_PARSE, SLOW_PARSE))))
def test_closed_form_matches_per_fragment(policy, slow_every, depth,
                                          value_bytes, parse_cpu):
    cell = (policy, slow_every, depth, value_bytes, parse_cpu)
    ref_fe, ref_sends, ref_env = drive(reference_send, *cell)
    twin_fe, twin_sends, twin_env = drive(closed_form_send, *cell)
    fe, sends, env = drive(None, *cell)
    for f, got in ((twin_fe, twin_sends), (fe, sends)):
        assert got == ref_sends          # return values and instants
        assert f.completions == ref_fe.completions
        assert f.stats() == ref_fe.stats()
    # the steps move the clock exactly as the process twin does
    assert env.instants == twin_env.instants
    st = fe.stats()
    assert st["completed"] + st["shed"] + st["dropped_cmds"] \
        == st["issued"]
    assert st["issued"] > 0
    # the saving is dispatches: the closed form never takes more than
    # the per-fragment train, and on multi-fragment commands strictly
    # fewer; the steps fewer than the processes
    assert twin_env.events_processed <= ref_env.events_processed
    if value_bytes == FIVE_FRAGMENTS:
        assert twin_env.events_processed < ref_env.events_processed
    assert env.events_processed < twin_env.events_processed


def test_the_grid_reaches_mid_train_closes(monkeypatch):
    """The DROP cells are an oracle for the close-at-boundary rule only
    if connections really close under a train, and not always inside
    its first fragment: a reader that takes ``SLOW_PARSE`` per frame
    closes two fragments into the train that follows."""
    landed = set()  # index of the first boundary >= each close instant
    mark = Connection._mark_closed

    def spy(conn):
        bounds = conn._train
        if bounds is not None:
            landed.add(sum(b < conn.env.now for b in bounds))
        mark(conn)

    monkeypatch.setattr(Connection, "_mark_closed", spy)
    fe, sends, _ = drive(None, "drop", 0, 8, FIVE_FRAGMENTS, SLOW_PARSE)
    assert fe.dropped_conns > 0
    assert {0, 1, 2} <= landed
    assert any(sent < len(_group(s, i, 1)) for s, i, sent, _ in sends)


@pytest.mark.parametrize("send", [reference_send, tcl.send])
def test_drop_mid_train_wakes_sender_at_next_boundary(send):
    """Three pipelined GETs overflow a one-slot queue behind a slow
    backend, and the reader (15 us per frame) drops the connection while
    the sender is two fragments into a five-fragment SET.  The sender
    must learn of the close at the first fragment boundary at or after
    that instant (the third), not at the end of the train and not at
    the close instant itself.  The per-fragment sender runs on the
    process twin, the step client (through test-process wrappers) on
    ``repro.net``."""
    env = Environment()
    cfg = NetConfig(policy=BackpressurePolicy.DROP, conn_queue=1,
                    pipeline_depth=8, parse_cpu=15e-6,
                    client_bandwidth=25e6)
    twin = send is reference_send
    fe = (ProcessFrontend if twin else NetFrontend)(
        env, FixedBackend(env, service=1e-3), cfg)
    connect = twins.connect if twin else tcl.connect
    big = ClientOp("SET", b"big", b"x" * FIVE_FRAGMENTS)
    box = {}

    def client():
        conn = yield from connect(fe.listener)
        delivered = []
        for k in (b"a", b"b", b"c"):
            assert (yield from send(conn, (ClientOp("GET", k),), 0.0)) == 1
            delivered.append(env.now)
        sent = yield from send(conn, (big,), 0.0)
        box.update(conn=conn, delivered=delivered, sent=sent, woke=env.now)

    env.run(until=env.process(client(), name="client"))
    # the idle reader takes the first GET as it lands and the other two
    # back to back; the third finds the queue full
    closed_at = box["delivered"][0] + 3 * cfg.parse_cpu
    bounds, t = [], box["delivered"][2]
    frame = len(encode_command(big))
    for i in range(0, frame, cfg.fragment_bytes):
        t = t + min(cfg.fragment_bytes, frame - i) / cfg.client_bandwidth
        bounds.append(t)
    assert len(bounds) == 5
    assert bounds[1] < closed_at < bounds[2]
    assert box["conn"].dropped
    assert box["sent"] == 0
    assert box["woke"] == bounds[2]
    env.run(until=0.01)
    st = fe.stats()
    assert st["issued"] == 4 and st["unsent"] == 0
    assert (st["completed"], st["dropped_cmds"]) == (1, 3)
    assert st["completed"] + st["shed"] + st["dropped_cmds"] \
        == st["issued"]


# ---------------------------------------------------------------------------
# The reader: decode memo vs always-parse
#
# The reader of ``repro.net`` takes a chunk that is byte-equal to a
# frame the front end already decoded, arriving into an empty parser,
# from the front end's ``decode_memo``.  The reference below is the
# reader it replaced, which feeds and parses every chunk, kept here as
# the twin: a process on the process twin's connections.  ``None``
# stands for the step reader of ``repro.net``.
# ---------------------------------------------------------------------------

def reference_read_loop(self):
    """The always-parse reader process (the parent of the decode memo)."""
    env = self.env
    cfg = self.cfg
    while True:
        chunk = yield self.inbox.get()
        if chunk is _CLOSE or self.closed:
            # graceful close: the dispatcher drains what's queued,
            # then exits on the sentinel
            if not self.closed:
                self._mark_closed()
                yield self.queue.put(_CLOSE)
            self._wake_window()
            return
        self.parser.feed(chunk)
        while True:
            try:
                done, value = self.parser.parse()
            except ProtocolError:
                self._drop_close()
                return
            if not done:
                break
            if cfg.parse_cpu:
                yield env.timeout(cfg.parse_cpu)
            try:
                op = op_from_command(value)
            except ProtocolError:
                self._drop_close()
                return
            t_int = self._meta.popleft() if self._meta else env.now
            yield from self._admit_process(op, t_int)
            if self.dropped:
                return


memo_read_loop = None  # the step reader of repro.net


class RecordingBackend(FixedBackend):
    def __init__(self, env, service=50e-6):
        super().__init__(env, service)
        self.executed = []

    def execute(self, op):
        self.executed.append(op)
        return (yield from super().execute(op))


def _repeating_group(session, i, fresh):
    """Three keys, two value sizes: frames repeat across sessions and
    slots.  When ``fresh``, every third SET's value is unique to its
    session and slot, so its frame misses the memo between hits; every
    fourth slot is a GET+SET pair."""
    key = b"k%d" % ((session + i) % 3)
    size = ONE_FRAGMENT if i % 2 else FIVE_FRAGMENTS
    value = bytes([65 + i % 2]) * size
    if fresh and i % 3 == 0:
        value = b"%02d%02d" % (session, i) + value[4:]
    op = ClientOp("SET", key, value)
    return (ClientOp("GET", key), op) if i % 4 == 3 else (op,)


def _observe(fe, be, env, parses):
    return {
        "completions": fe.completions,
        "stats": fe.stats(),
        "replies": [c.replies for c in fe.connections],
        "dropped": [c.dropped for c in fe.connections],
        "executed": be.executed,
        "instants": env.instants,
        "parses": parses[0],
    }


def _counting_parses(mp):
    parses = [0]
    parse = RespParser.parse

    def counted(parser):
        parses[0] += 1
        return parse(parser)

    mp.setattr(RespParser, "parse", counted)
    return parses


def _reader_frontend(mp, reader, env, be, cfg):
    """The step reader's front end, or the process twin's with
    ``reader`` as its reader process."""
    if reader is None:
        return NetFrontend(env, be, cfg)
    mp.setattr(ProcessConnection, "_read_loop", reader)
    return ProcessFrontend(env, be, cfg)


def drive_reader(reader, policy, slow_every, depth, parse_cpu, fresh):
    """``drive``'s sessions with repeating frames, through ``reader``
    (``None``: the step client and reader)."""
    with pytest.MonkeyPatch.context() as mp, twins.logging_dispatches():
        parses = _counting_parses(mp)
        env = InstantLog()
        cfg = NetConfig(policy=BackpressurePolicy(policy), conn_queue=4,
                        max_inflight=8, pipeline_depth=depth,
                        slow_every=slow_every, slow_factor=0.25,
                        parse_cpu=parse_cpu, capture_replies=True)
        be = RecordingBackend(env)
        fe = _reader_frontend(mp, reader, env, be, cfg)
        sends = run_sessions(env, fe,
                             None if reader is None else closed_form_send,
                             lambda s, i: _repeating_group(s, i, fresh))
        out = _observe(fe, be, env, parses)
        out["sends"] = sends
        return out


@pytest.mark.parametrize(
    "policy,slow_every,depth,parse_cpu,fresh",
    list(itertools.product(("block", "shed", "drop"), (0, 1, 2),
                           (1, 8, 32), (0.0, DEFAULT_PARSE),
                           (False, True))))
def test_decode_memo_matches_always_parse(policy, slow_every, depth,
                                          parse_cpu, fresh):
    cell = (policy, slow_every, depth, parse_cpu, fresh)
    ref = drive_reader(reference_read_loop, *cell)
    got = drive_reader(memo_read_loop, *cell)
    ref_parses, parses = ref.pop("parses"), got.pop("parses")
    assert got == ref
    st = got["stats"]
    assert st["issued"] > 0
    assert st["completed"] + st["shed"] + st["dropped_cmds"] \
        == st["issued"]
    # the saving: repeated frames skip the parser
    assert parses < ref_parses
    if fresh:
        assert any(op.value[:1].isdigit() for op in got["executed"])


def _flip(frame, old, new):
    assert frame.count(old) == 1
    return frame.replace(old, new)


FRAME_A = encode_command(ClientOp("SET", b"a", b"x" * 40))
FRAME_B = encode_command(ClientOp("GET", b"b"))
B_HEAD, B_TAIL = FRAME_B[:13], FRAME_B[13:]  # "*2 $3 GET" | "$1 b"

RAW_CASES = {
    # neither frame of a two-frame chunk is a memo entry for the chunk
    "two_frames_in_one_chunk": [FRAME_A + FRAME_B, FRAME_A + FRAME_B,
                                FRAME_A, FRAME_A, FRAME_B],
    # a frame completed by a later chunk is stored under neither chunk;
    # the tail alone is a bare bulk string, not a command
    "frame_split_across_chunks": [B_HEAD, B_TAIL, FRAME_B, FRAME_B,
                                  B_TAIL],
    # a memoized frame arriving behind pending bytes is parsed with them
    "memoized_frame_behind_pending_bytes": [FRAME_A, FRAME_A, B_HEAD,
                                            FRAME_A, B_TAIL, FRAME_A],
    "blank_lines": [b"\r\n", FRAME_A, b"\r\n" + FRAME_A, b"\r\n" + FRAME_A,
                    FRAME_A + b"\r\n", FRAME_A + b"\r\n", b"\n", FRAME_A,
                    b"\r", b"\n" + FRAME_A, FRAME_A],
    "inline_command": [b"GET a\r\n", b"GET a\r\n", b"get  a\n",
                       b"GET a\r\n", b"SET a b\r\n", b"SET a b\r\n"],
    # unhashable: takes the parser path even though A is memoized
    "bytearray_chunk": [FRAME_A, bytearray(FRAME_A), FRAME_A,
                        bytearray(FRAME_A), bytearray(FRAME_B), FRAME_B],
    # a SET with a word after the value is not a command
    "set_with_trailing_flag": [FRAME_A, FRAME_A,
                               _flip(FRAME_A, b"*3", b"*5")
                               + b"$2\r\nPX\r\n$3\r\nabc\r\n", FRAME_A],
    # byte-flipped copies of a memoized frame miss and fail as before
    "flipped_bulk_length": [FRAME_A, FRAME_A,
                            _flip(FRAME_A, b"$40", b"$41"), FRAME_A],
    "flipped_command_name": [FRAME_A, FRAME_A,
                             _flip(FRAME_A, b"SET", b"SEX"), FRAME_A],
    "flipped_array_header": [FRAME_B, FRAME_B,
                             _flip(FRAME_B, b"*2", b"*x"), FRAME_B],
}


def drive_chunks(reader, chunks, gap, parse_cpu):
    """Put raw chunks into one connection's inbox, ``gap`` apart (0:
    back to back, so they queue behind a busy reader)."""
    with pytest.MonkeyPatch.context() as mp, twins.logging_dispatches():
        parses = _counting_parses(mp)
        env = InstantLog()
        be = RecordingBackend(env)
        fe = _reader_frontend(mp, reader, env, be,
                              NetConfig(capture_replies=True,
                                        pipeline_depth=64,
                                        parse_cpu=parse_cpu))
        connect = tcl.connect if reader is None else twins.connect

        def client():
            conn = yield from connect(fe.listener)
            for chunk in chunks:
                if gap:
                    yield env.timeout(gap)
                if reader is None:
                    yield tcl.put(conn, chunk)
                else:
                    yield conn.inbox.put(chunk)

        env.process(client(), name="client")
        env.run(until=0.01)
        return _observe(fe, be, env, parses), fe


@pytest.mark.parametrize("parse_cpu", [0.0, DEFAULT_PARSE])
@pytest.mark.parametrize("gap", [0.0, 10e-6, 200e-6])
@pytest.mark.parametrize("case", sorted(RAW_CASES))
def test_raw_chunks_decode_as_the_parser_decodes(case, gap, parse_cpu):
    ref, _ = drive_chunks(reference_read_loop, RAW_CASES[case], gap,
                          parse_cpu)
    got, fe = drive_chunks(memo_read_loop, RAW_CASES[case], gap, parse_cpu)
    assert got.pop("parses") <= ref.pop("parses")
    assert got == ref
    assert ref["executed"] or ref["dropped"] == [True]
    # only whole single-frame bytes chunks are ever memo keys
    for frame, op in fe.decode_memo.items():
        assert type(frame) is bytes and decode_command(frame) == op


def test_raw_cases_take_both_paths():
    """The raw cases are an oracle for the hit conditions only if hits
    happen and each guarded chunk really reaches the parser."""
    hits = {}
    for case, chunks in RAW_CASES.items():
        ref, _ = drive_chunks(reference_read_loop, chunks, 10e-6, 0.0)
        got, _ = drive_chunks(memo_read_loop, chunks, 10e-6, 0.0)
        hits[case] = ref["parses"] - got["parses"]
    assert all(n > 0 for n in hits.values()), hits


def _client_ops():
    keys = st.binary(max_size=40)
    return st.one_of(
        st.builds(ClientOp, st.just("GET"), keys),
        st.builds(ClientOp, st.just("DEL"), keys),
        st.builds(ClientOp, st.just("SET"), keys, st.binary(max_size=600)),
    )


@settings(max_examples=150, deadline=None)
@given(op=_client_ops())
def test_memo_decode_equals_parser_decode(op):
    """Whatever the op, the second, memoized decode of its frame is the
    parser's decode of it."""
    frame = encode_command(op)
    got, fe = drive_chunks(memo_read_loop, [frame, frame], 10e-6, 0.0)
    parsed = decode_command(frame)
    assert got["executed"] == [parsed, parsed]
    assert got["parses"] == 2  # one frame, one "need more bytes"
    assert got["executed"][1] is fe.decode_memo[frame]


def test_memo_stays_under_its_bound_on_unique_values(monkeypatch):
    """Insert-only traffic never repeats a frame: the memo must start
    over at its bound rather than grow, and a frame over the bound is
    never stored."""
    bound = 2048
    monkeypatch.setattr(frontend_mod, "MEMO_FRAME_BYTES", bound)
    held = []
    store = BoundedMemo.store

    def watched(memo, frame, op, size):
        stored = store(memo, frame, op, size)
        assert memo.nbytes == sum(len(f) for f in memo) <= bound
        held.append(memo.nbytes)
        return stored

    monkeypatch.setattr(BoundedMemo, "store", watched)
    ops = [ClientOp("SET", b"key%04d" % i, b"%08d" % i * 8)
           for i in range(100)]
    big = ClientOp("SET", b"big", b"z" * bound)
    frames = [encode_command(op) for op in ops + [big]]
    got, fe = drive_chunks(memo_read_loop, frames, 10e-6, DEFAULT_PARSE)
    assert got["executed"] == ops + [big]
    assert sum(len(f) for f in frames[:-1]) > 3 * bound
    assert len(held) == len(frames)
    assert any(b < a for a, b in zip(held, held[1:]))  # it started over
    assert encode_command(big) not in fe.decode_memo
    assert fe.decode_memo.nbytes <= bound
    fe.close()
    assert not fe.decode_memo and fe.decode_memo.nbytes == 0
