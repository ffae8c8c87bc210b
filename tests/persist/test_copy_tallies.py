"""Host copies per logged byte: the data planes copy each WAL byte into
its page once after encoding it, and build no buffer the size of a
flush on the way.

The tallies (:func:`repro.nvme.copies.copy_tallies`) count the bytes
each stage copies, process-wide. The runs here are TINY closed loops
with the WAL-triggered snapshot off, so every byte copied is a WAL byte
or a re-copy around one (the older part of a partial page a write
continues, its zero fill, writeback's snapshot of it), counted against
the bytes the server staged: the encoded records.
"""

import tracemalloc

import pytest

from repro import build_baseline, build_slimio
from repro.bench.scales import TINY_SCALE
from repro.core import LbaSpaceManager, MetadataStore
from repro.core.paths import WalPath
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme.copies import STAGES, copy_tallies, cut_runs
from repro.persist import AofCodec, AofRecord, LoggingPolicy, OP_SET
from repro.persist.encoding import AofReader
from repro.sim import Environment

from tests.core.test_copy_chain_twin import _device

PAGE = 4096


def _run(builder, policy):
    """A TINY run's copies per stage and its registry."""
    before = copy_tallies()
    system = builder(config=TINY_SCALE.system_config(
        gc_pressure=False, trigger=False, policy=policy))
    TINY_SCALE.redis_bench(total_ops=1_500).run(system)
    system.stop()
    after = copy_tallies()
    return {k: after[k] - before[k] for k in STAGES}, system.obs


POLICIES = pytest.mark.parametrize(
    "policy", [LoggingPolicy.PERIODICAL, LoggingPolicy.ALWAYS],
    ids=["periodical", "always"])


@POLICIES
def test_slimio_copies_a_wal_byte_twice(policy):
    """Encoded once, then copied once into its device page. A flush
    also re-copies the head of the partial page it continues and
    zero-fills the end of its last one: under two pages a flush."""
    copied, obs = _run(build_slimio, policy)
    staged = copied["record_encode"]
    assert staged > 1_500 * TINY_SCALE.redis_value
    assert {k for k, v in copied.items() if v} == {"record_encode",
                                                    "page_build"}
    flushes = obs.snapshot()["walpath_flush_bytes"]["count"]
    assert sum(copied.values()) <= 2 * staged + 2 * PAGE * flushes
    assert sum(copied.values()) <= 3 * staged


@POLICIES
def test_baseline_copies_a_wal_byte_three_times(policy):
    """Encoded, joined into the ``write()`` buffer and copied into the
    page cache; a page written whole goes to the device as it is. A
    write also copies the shared page it continues (copy-on-write), and
    writeback snapshots the partial pages at its two ends: at most
    three pages a write."""
    copied, obs = _run(build_baseline, policy)
    staged = copied["record_encode"]
    assert staged > 1_500 * TINY_SCALE.redis_value
    assert not copied["page_build"]
    writes = obs.total("fs_write_calls_total")
    assert sum(copied.values()) <= 3 * staged + 3 * PAGE * writes


def test_a_wal_flush_builds_no_buffer_of_its_size():
    """Flushing 1 MiB of staged records allocates its pages and little
    else: the copying chain held the joined records, the tail-prefixed
    copy and the padded copy at once."""
    env = Environment()
    ring = PassthruQueuePair(env, _device(env))
    space = LbaSpaceManager(ring.device.num_lbas)
    acct = CpuAccount(env, "main")
    wal = WalPath(env, ring, space, MetadataStore(ring, space.layout), acct)
    recs = [AofCodec.encode(AofRecord(op=OP_SET, key=b"k%d" % i,
                                      value=bytes(4000 + i)))
            for i in range(256)]
    nbytes = sum(map(len, recs))

    def proc():
        yield from wal.append([recs[0][:100]], acct)
        yield from wal.flush(acct)  # a partial tail page to continue
        yield from wal.append(recs, acct)
        tracemalloc.start()
        try:
            yield from wal.flush(acct)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = env.run(until=env.process(proc()))
    assert nbytes < peak < 1.2 * nbytes


def test_encode_copies_the_value_once():
    rec = AofRecord(op=OP_SET, key=b"key", value=bytes(1 << 20))
    before = copy_tallies()["record_encode"]
    tracemalloc.start()
    try:
        data = AofCodec.encode(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copy_tallies()["record_encode"] - before == len(data)
    assert peak < 1.1 * len(data)
    keyspace = {}
    reader = AofReader(keyspace)
    reader.feed(data)
    assert keyspace == {b"key": bytes(1 << 20)} and reader.count == 1


def test_cut_runs_copies_each_byte_once_into_its_run():
    parts = [b"ab", b"", memoryview(b"cdefghij")[1:], b"k" * 9, b"lmn"]
    runs, rest = cut_runs(parts, 4)
    stream = b"".join(parts)
    assert runs == [stream[i:i + 4] for i in range(0, 20, 4)]
    assert all(type(r) is bytes for r in runs)
    assert b"".join(rest) == stream[20:] == b"n"
    assert cut_runs([b"abcd", b"", b"efgh"], 4) == ([b"abcd", b"efgh"], [])
