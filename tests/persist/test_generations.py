"""The chunk memo holds live snapshot generations, not the history.

A codec's snapshots are owned per :class:`SnapshotKind` (one sink each).
An owner keeps the chunks of its latest published snapshot and of the
one being written: a durable snapshot releases the generation it
supersedes, an aborted one releases only its own chunks, and a new
child first drops what a child cut by a power loss left behind. Chunks
are counted across codecs, so a chunk another owner's live generation
uses stays, and a finished system's latest snapshot still hits for a
second system over the same inputs.
"""

import gc

from repro import SnapshotKind, build_slimio
from repro.bench.scales import TEST_SCALE
from repro.core import verify_lba_space
from repro.kernel import CpuAccount
from repro.persist import SnapshotWriterProcess, compress
from repro.persist.compress import Compressor, tallies
from repro.persist.encoding import (
    _CHUNK_HDR, _CRC, _RDB_HDR, RdbReader, RdbWriter)
from repro.persist.interfaces import SnapshotSink
from repro.sim import Environment
from repro.workloads import ClosedLoopWorkload

WAL, ON_DEMAND = SnapshotKind.WAL_TRIGGERED, SnapshotKind.ON_DEMAND


def delta(before: dict) -> dict:
    """What the process's zlib tallies moved since ``before``."""
    return {k: v - before[k] for k, v in tallies().items()}


class MemorySink(SnapshotSink):
    """Holds the stream in memory; every write and the finalize take
    1 µs. ``fail`` makes the finalize raise after its wait; with
    ``cut_after`` chunks written the power goes: that write never
    completes."""

    def __init__(self, env: Environment, fail: bool = False,
                 cut_after: int | None = None):
        self.env = env
        self.fail = fail
        self.cut_after = cut_after
        self.parts: list[bytes] = []
        self.durable: bytes | None = None

    def write(self, data, account):
        self.parts.append(bytes(data))
        if self.cut_after is not None and len(self.parts) > self.cut_after:
            yield self.env.event()  # never triggered
        yield self.env.timeout(1e-6)

    def finalize(self, account):
        yield self.env.timeout(1e-6)
        if self.fail:
            raise OSError("injected finalize failure")
        self.durable = b"".join(self.parts)

    def abort(self) -> None:
        self.parts = []

    @property
    def bytes_written(self) -> int:
        return sum(map(len, self.parts))


def blobs(stream: bytes) -> list[bytes]:
    """The chunk blobs of an RDB stream, complete chunks only."""
    out, pos = [], _RDB_HDR.size
    while pos + _CHUNK_HDR.size <= len(stream) and stream[pos] == 0xC7:
        comp_len = _CHUNK_HDR.unpack_from(stream, pos)[3]
        end = pos + _CHUNK_HDR.size + comp_len + _CRC.size
        if end > len(stream):
            break
        out.append(stream[pos + _CHUNK_HDR.size:end - _CRC.size])
        pos = end
    return out


def items(gen: int, n: int = 24, changed: range = range(24)):
    """``n`` entries; those in ``changed`` carry generation ``gen``'s
    value, the others generation 0's."""
    return [(b"key-%03d" % i,
             (b"g%d-%d|" % (gen if i in changed else 0, i)) * 200)
            for i in range(n)]


def fresh() -> Compressor:
    codec = Compressor()
    codec.chunk_memo = compress._Memo()
    return codec


def snapshot(codec, entries, kind=ON_DEMAND, fail=False, cut_after=None):
    """One child on its own clock; with ``cut_after`` the child is
    abandoned once that many chunks reached the sink, as a power cut
    leaves it."""
    env = Environment()
    sink = MemorySink(env, fail, cut_after)
    child = SnapshotWriterProcess(env, entries, sink, kind=kind,
                                  compressor=codec, chunk_entries=4,
                                  account=CpuAccount(env, "child"))

    def body():
        try:
            yield from child.run()
        except OSError:
            pass

    proc = env.process(body())
    env.run(until=proc if cut_after is None else None)
    assert proc.triggered == (cut_after is None)
    return sink


def held(codec) -> set[bytes]:
    return set(codec.chunk_memo.by_blob)


def check_consistent(memo) -> None:
    assert memo.nbytes == sum(len(b) for _, b in memo.values())
    assert len(memo.by_blob) == len(memo)
    assert set(memo.refs) <= set(memo)


def test_publish_keeps_one_generation_per_sink():
    codec = fresh()
    latest: dict[SnapshotKind, bytes] = {}
    for gen in range(1, 7):
        for kind in (WAL, ON_DEMAND):
            # a third of the entries change between generations
            entries = items(gen, changed=range(gen % 3, 24, 3))
            latest[kind] = snapshot(codec, entries, kind).durable
            live = set().union(*(blobs(s) for s in latest.values()))
            assert held(codec) == live
            assert codec.chunk_memo.nbytes == sum(map(len, live))
            check_consistent(codec.chunk_memo)


def test_held_bytes_mid_snapshot_are_one_published_plus_one_in_flight():
    codec = fresh()
    published = snapshot(codec, items(1)).durable
    cut = snapshot(codec, items(2), cut_after=2)
    assert len(blobs(b"".join(cut.parts))) == 2
    assert held(codec) == set(blobs(published)) | set(
        blobs(b"".join(cut.parts)))


def test_a_failed_finalize_releases_only_its_own_chunks():
    codec = fresh()
    published = snapshot(codec, items(0)).durable
    # entries 0-7 unchanged: the failed child's first two chunks are
    # the published generation's, and stay
    before = tallies()
    failed = snapshot(codec, items(2, changed=range(8, 24)), fail=True)
    assert delta(before)["writer_hits"] == 2
    assert failed.durable is None and failed.parts == []
    assert held(codec) == set(blobs(published))
    check_consistent(codec.chunk_memo)
    before = tallies()
    reader = RdbReader(codec)
    assert reader.feed(published) == items(0)
    reader.finish()
    assert delta(before)["inflate_calls"] == 0


def test_after_a_power_cut_the_previous_generation_decodes_from_the_memo():
    codec = fresh()
    published = snapshot(codec, items(1)).durable
    snapshot(codec, items(2), cut_after=2)
    before = tallies()
    reader = RdbReader(codec)
    assert reader.feed(published) == items(1)
    reader.finish()
    moved = delta(before)
    assert moved["inflate_calls"] == 0
    assert moved["reader_hits"] == len(blobs(published))


def test_repeated_power_cuts_do_not_grow_the_memo():
    codec = fresh()
    published = set(blobs(snapshot(codec, items(1)).durable))
    sizes = []
    for gen in range(2, 12):
        cut = snapshot(codec, items(gen), cut_after=2)
        assert held(codec) == published | set(blobs(b"".join(cut.parts)))
        sizes.append(len(codec.chunk_memo))
    assert max(sizes) == min(sizes) == len(published) + 2
    # the next child drops the last cut's chunks, and its own publish
    # the generation before it
    latest = snapshot(codec, items(1, changed=range(0))).durable
    assert held(codec) == set(blobs(latest))


def test_a_chunk_another_owners_generation_uses_stays():
    a, b = fresh(), Compressor()
    b.chunk_memo = a.chunk_memo
    first = snapshot(a, items(1)).durable
    before = tallies()
    assert snapshot(b, items(1)).durable == first
    assert delta(before)["deflate_calls"] == 0
    # a's next generation shares no chunk with its first: b still
    # holds every one of them
    snapshot(a, items(2))
    assert set(blobs(first)) <= held(a)
    snapshot(b, items(3))
    assert not set(blobs(first)) & held(a)
    check_consistent(a.chunk_memo)


def test_a_writer_with_no_owner_keeps_hitting():
    """Chunks no generation holds stay until the backstop (the
    slimbench ``rdb_chunk`` micro writes with no owner, no footer)."""
    codec = fresh()
    writer = RdbWriter(codec)
    writer.header()
    before = tallies()
    for _ in range(3):
        writer.chunk(items(1)[:4])
    moved = delta(before)
    assert moved["deflate_calls"] == 1 and moved["writer_hits"] == 2
    assert codec.chunk_memo.refs == {}


def test_the_backstop_clears_the_counts_too(monkeypatch):
    codec = fresh()
    memo = codec.chunk_memo
    snapshot(codec, items(1))
    monkeypatch.setattr(memo, "bound", memo.nbytes + 1)
    # the next generation's first store crosses the bound and clears
    # the memo; releasing the first generation then finds no count
    latest = snapshot(codec, items(2)).durable
    check_consistent(memo)
    assert held(codec) <= set(blobs(latest))
    assert memo.nbytes <= memo.bound


def workload(seed: int) -> ClosedLoopWorkload:
    """A value is a function of its key and size: each seed SETs
    values of its own size, so every chunk changes."""
    return ClosedLoopWorkload(clients=4, total_ops=300, key_count=120,
                              value_size=512 * seed, seed=seed)


def snapshot_on(system, kind: SnapshotKind):
    env = system.env
    stats = env.run(until=system.server.start_snapshot(kind))
    assert stats.ok
    return stats


def test_wal_and_on_demand_generations_decode_without_inflating():
    """Both of a server's slots stay decodable from the memo: recovery
    of either kind and the offline fsck inflate nothing."""
    config = TEST_SCALE.system_config(gc_pressure=False)
    system = build_slimio(config=config)
    env = system.env
    workload(1).run(system)
    wal_stats = snapshot_on(system, WAL)
    workload(2).run(system)
    demand_stats = snapshot_on(system, ON_DEMAND)
    workload(3).run(system)
    env.run(until=env.process(system.wal.flush_now()))
    expected = system.server.store.as_dict()
    system.crash()
    before = tallies()
    report = verify_lba_space(system.device, system.space.layout,
                              snapshot_fraction=config.snapshot_fraction)
    assert report.ok
    assert report.snapshot_entries == {
        "WAL_SNAPSHOT": wal_stats.entries,
        "ONDEMAND_SNAPSHOT": demand_stats.entries}
    for kind in (WAL, ON_DEMAND):
        result = env.run(until=env.process(system.recover(kind)))
        assert result.data == expected
    moved = delta(before)
    assert moved["inflate_calls"] == 0 and moved["deflate_calls"] == 0
    assert moved["reader_hits"] > 0
    system.stop()


def test_a_second_server_deflates_nothing_for_the_first_ones_latest():
    def run(system):
        workload(1).run(system)
        before = tallies()
        snapshot_on(system, ON_DEMAND)
        first = delta(before)
        workload(2).run(system)
        before = tallies()
        stats = snapshot_on(system, ON_DEMAND)
        latest = delta(before)
        system.stop()
        return first, latest, stats

    gc.collect()  # finished systems of earlier tests leave their chunks
    assert not compress._MEMOS
    config = TEST_SCALE.system_config(gc_pressure=False)
    a = build_slimio(config=config)
    run(a)
    b = build_slimio(config=config)
    del a
    gc.collect()  # the first system is gone; its latest chunks are not
    first, latest, stats = run(b)
    chunks = -(-stats.entries // config.server.snapshot_chunk_entries)
    assert latest["deflate_calls"] == 0
    assert latest["writer_hits"] == chunks
    # the first system's first generation was released by its second
    assert first["deflate_calls"] > 0


def test_tallies_count_what_zlib_does():
    codec = fresh()
    before = tallies()
    stream = snapshot(codec, items(1)).durable
    moved = delta(before)
    n = len(blobs(stream))
    raw = sum(8 + len(k) + len(v) for k, v in items(1))
    assert moved["deflate_calls"] == n and moved["deflate_in_bytes"] == raw
    codec.chunk_memo = compress._Memo()  # cold: every blob inflates
    before = tallies()
    reader = RdbReader(codec)
    reader.feed(stream)
    reader.finish()
    moved = delta(before)
    assert moved["inflate_calls"] == n and moved["inflate_out_bytes"] == raw
    assert moved["reader_hits"] == 0
