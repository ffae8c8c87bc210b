"""The one-copy data planes against their copying twins
(:mod:`tests.core.twins`).

Each seeded script drives a path in ``src`` and its twin with the same
appends, and requires the same results: device pages (metadata pages
included), simulated time and events, replay, and every writeback
payload. The scripts cover unaligned record sizes, a tail page the
next flush rewrites, flushes across a generation switch, whole and
partial page-cache writes at unaligned offsets, and pages re-dirtied
while their writeback is in flight.
"""

import random

import pytest

from repro.core import LbaSpaceManager, MetadataStore
from repro.core.paths import SnapshotPath, WalPath
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, PageCache, PassthruQueuePair
from repro.nvme import NvmeDevice, ReadCmd, WriteCmd
from repro.persist import AofCodec, AofRecord, OP_DEL, OP_SET, SnapshotKind
from repro.persist.encoding import AofReader
from repro.sim import Environment

from tests.core.twins import (
    BufferingSnapshotPath,
    CopyingPageCache,
    JoiningWalPath,
    encode_two_concats,
)
from tests.kernel.test_pagecache import linear_resolver

PAGE = 4096
SEEDS = [1, 2, 3, 4]
FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


def _device(env):
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=48,
                      pages_per_block=16)
    return NvmeDevice(env, g, FAST, CFG, fdp=True)


def _stored(env, device):
    """Every page the device stores, read through a ring of its own
    (after the run's clock and event count were read)."""
    ring = PassthruQueuePair(env, device)
    return _drive(env, ring.submit_and_wait(
        ReadCmd(lba=0, nlb=device.num_lbas), CpuAccount(env, "check")))


def _drive(env, gen):
    return env.run(until=env.process(gen))


# ---------------------------------------------------------------- WAL path
def _wal_script(seed):
    """Batches of records of unaligned sizes, with flushes, generation
    switches and retirements between them."""
    rng = random.Random(seed)
    script = []
    for i in range(60):
        batch = []
        for j in range(rng.randint(1, 6)):
            key = b"k%d" % rng.randrange(40)
            if rng.random() < 0.15:
                batch.append(AofRecord(op=OP_DEL, key=key))
            else:
                size = rng.choice([0, 1, 17, 4083, 4096, 4097, 6000,
                                   rng.randint(1, 9000)])
                batch.append(AofRecord(op=OP_SET, key=key,
                                       value=rng.randbytes(size)))
        script.append(("append", batch))
        roll = rng.random()
        if roll < 0.5:
            script.append(("flush",))
        elif roll < 0.6:
            script.append(("begin_generation",))
        elif roll < 0.65:
            script.append(("retire_previous",))
    script.append(("flush",))
    return script


def _run_wal(cls, encode, script):
    env = Environment()
    device = _device(env)
    ring = PassthruQueuePair(env, device)
    space = LbaSpaceManager(device.num_lbas)
    meta = MetadataStore(ring, space.layout)
    acct = CpuAccount(env, "main")
    wal = cls(env, ring, space, meta, acct)
    rewrites = 0

    def proc():
        nonlocal rewrites
        for op, *args in script:
            if op == "append":
                yield from wal.append([encode(r) for r in args[0]], acct)
            elif op == "flush":
                rewrites += wal._tail_vpn is not None and bool(wal._staged)
                yield from wal.flush(acct)
            elif op == "begin_generation":
                yield from wal.begin_generation(acct)
            else:
                wal.previous_covered()
                yield from wal.retire_previous(acct)
        keyspace = {}
        reader = AofReader(keyspace)
        yield from wal.read_all(acct, reader)
        return keyspace, reader.finish(strict=True)

    keyspace, scan = _drive(env, proc())
    return dict(
        now=env.now, events=env.events_processed + env.events_absorbed,
        keyspace=keyspace, records=scan.count, consumed=scan.consumed,
        tail=bytes(wal._tail), head=space.wal.head,
        gen=(space.wal.gen_start, space.wal.prev_start),
        generations=(wal._gen_bytes, space.wal.prev_bytes),
        rewrites=rewrites, pages=_stored(env, device))


@pytest.mark.parametrize("seed", SEEDS)
def test_wal_path_writes_what_the_joining_twin_writes(seed):
    script = _wal_script(seed)
    new = _run_wal(WalPath, AofCodec.encode, script)
    twin = _run_wal(JoiningWalPath, encode_two_concats, script)
    assert new == twin
    # the script exercised what it is for
    assert new["rewrites"] > 5
    assert sum(op == "begin_generation" for op, *_ in script) > 0
    assert new["records"] > 0 and new["keyspace"]


@pytest.mark.parametrize("seed", SEEDS)
def test_encode_matches_the_two_concat_twin(seed):
    rng = random.Random(seed)
    for _ in range(200):
        key = rng.randbytes(rng.randint(0, 64))
        if rng.random() < 0.2:
            rec = AofRecord(op=OP_DEL, key=key)
        else:
            rec = AofRecord(op=OP_SET, key=key,
                            value=rng.randbytes(rng.randint(0, 9000)))
        assert AofCodec.encode(rec) == encode_two_concats(rec)


# ------------------------------------------------------------ snapshot path
def _run_snapshot(cls, seed):
    rng = random.Random(seed)
    env = Environment()
    device = _device(env)
    ring = PassthruQueuePair(env, device)
    space = LbaSpaceManager(device.num_lbas)
    meta = MetadataStore(ring, space.layout)
    acct = CpuAccount(env, "child")
    sink = cls(env, ring, space, meta, SnapshotKind.ON_DEMAND,
               write_batch_pages=rng.choice([1, 3, 8]),
               max_inflight_batches=2)

    def proc():
        for _ in range(3):  # the second and third replace the first
            for _ in range(rng.randint(0, 40)):
                size = rng.choice([0, 1, PAGE, 3 * PAGE + 5,
                                   rng.randint(1, 40_000)])
                yield from sink.write(rng.randbytes(size), acct)
            if rng.random() < 0.25:
                sink.abort()
                continue
            if sink.bytes_written:
                yield from sink.finalize(acct)

    _drive(env, proc())
    return (env.now, env.events_processed, list(space.slots.lengths),
            list(space.slots.roles), _stored(env, device))


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_path_writes_what_the_buffering_twin_writes(seed):
    new = _run_snapshot(SnapshotPath, seed)
    assert new == _run_snapshot(BufferingSnapshotPath, seed)
    assert any(new[2])  # a snapshot was published


# --------------------------------------------------------------- page cache
class _Capture:
    """Device proxy that keeps every write payload with a copy of it
    taken at submission, and fires ``seen`` at the next write."""

    def __init__(self, inner, env):
        self.inner = inner
        self.env = env
        self.writes = []
        self.seen = env.event()

    def submit(self, cmd):
        if isinstance(cmd, WriteCmd):
            self.writes.append((cmd.lba, cmd.data,
                                [bytearray(p) for p in cmd.data]))
            if not self.seen.triggered:
                self.seen.succeed()
        return (yield from self.inner.submit(cmd))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _run_cache(cls, seed):
    rng = random.Random(seed)
    env = Environment()
    device = _device(env)
    spy = _Capture(device, env)
    cache = cls(env, BlockLayer(env, spy), dirty_limit_bytes=24 * PAGE)
    acct = CpuAccount(env, "writer")
    for fid in (1, 2):
        cache.register_file(fid, linear_resolver(fid * 200))
    inflight_redirties = 0
    for _ in range(80):
        fid = rng.choice((1, 2))
        kind = rng.random()
        if kind < 0.35:  # whole pages, page aligned
            off = rng.randrange(40) * PAGE
            data = rng.randbytes(rng.randint(1, 6) * PAGE)
        elif kind < 0.7:  # unaligned, spanning pages
            off = rng.randrange(40 * PAGE)
            data = rng.randbytes(rng.randint(PAGE, 5 * PAGE))
        else:  # inside one page
            off = rng.randrange(40 * PAGE)
            data = rng.randbytes(rng.randint(1, PAGE - off % PAGE))
        roll = rng.random()
        if roll < 0.25 and any(k[0] == fid for k in cache._dirty):
            # re-dirty a page while its writeback is in flight
            spy.seen = env.event()
            sync = env.process(cache.fsync(fid, acct))
            env.run(until=spy.seen)
            lba = spy.writes[-1][0]
            fid, idx = divmod(lba, 200)
            off = idx * PAGE + rng.choice([0, rng.randrange(PAGE)])
            _drive(env, cache.write(fid, off, data, acct))
            inflight_redirties += sync.is_alive
            env.run(until=sync)
        else:
            _drive(env, cache.write(fid, off, data, acct))
            if roll < 0.5:
                _drive(env, cache.fsync(fid, acct))
    for fid in (1, 2):
        _drive(env, cache.fsync(fid, acct))
    for _lba, payload, at_submit in spy.writes:
        # immutable, and never changed after submission
        assert all(type(p) is bytes for p in payload)
        assert payload == at_submit
    reads = [b"".join(_drive(env, cache.read_pages(
        fid, 0, 46 * PAGE, acct, readahead=0))) for fid in (1, 2)]
    return dict(now=env.now,
                events=env.events_processed + env.events_absorbed,
                reads=reads, inflight=inflight_redirties,
                writes=[(lba, at_submit) for lba, _, at_submit in spy.writes],
                pages=_stored(env, device))


@pytest.mark.parametrize("seed", SEEDS)
def test_page_cache_writes_back_what_the_copying_twin_writes_back(seed):
    new = _run_cache(PageCache, seed)
    assert new == _run_cache(CopyingPageCache, seed)
    assert new["inflight"] > 0
