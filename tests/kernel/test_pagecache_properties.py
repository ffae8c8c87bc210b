"""Page cache vs a reference byte model, under random write/read/fsync
sequences, including crash points."""

from hypothesis import given, settings, strategies as st

from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, PageCache
from repro.nvme import NvmeDevice
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)

FILE_PAGES = 8
FILE_BYTES = FILE_PAGES * 4096


def world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG)
    blk = BlockLayer(env, dev)
    cache = PageCache(env, blk,
                      dirty_limit_bytes=4 * 1024 * 1024)
    cache.register_file(1, lambda idx: 10 + idx)
    return env, dev, cache


@st.composite
def ops(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["write", "write", "read", "fsync"]))
        if kind == "write":
            off = draw(st.integers(min_value=0, max_value=FILE_BYTES - 1))
            size = draw(st.integers(min_value=1,
                                    max_value=min(5000, FILE_BYTES - off)))
            fill = draw(st.integers(min_value=1, max_value=255))
            out.append(("write", off, bytes([fill]) * size))
        elif kind == "read":
            off = draw(st.integers(min_value=0, max_value=FILE_BYTES - 1))
            size = draw(st.integers(min_value=0,
                                    max_value=FILE_BYTES - off))
            out.append(("read", off, size))
        else:
            out.append(("fsync",))
    return out


@given(ops())
@settings(max_examples=40, deadline=None)
def test_cache_reads_match_reference(sequence):
    env, dev, cache = world()
    acct = CpuAccount(env, "p")
    reference = bytearray(FILE_BYTES)

    def driver():
        for op in sequence:
            if op[0] == "write":
                _, off, data = op
                reference[off:off + len(data)] = data
                yield from cache.write(1, off, data, acct)
            elif op[0] == "read":
                _, off, size = op
                got = yield from cache.read(1, off, size, acct)
                assert got == bytes(reference[off:off + size])
            else:
                yield from cache.fsync(1, acct)

    env.run(until=env.process(driver()))


@given(ops())
@settings(max_examples=30, deadline=None)
def test_fsync_then_crash_preserves_everything(sequence):
    """After an fsync, a crash must lose nothing written before it."""
    env, dev, cache = world()
    acct = CpuAccount(env, "p")
    reference = bytearray(FILE_BYTES)

    def driver():
        for op in sequence:
            if op[0] == "write":
                _, off, data = op
                reference[off:off + len(data)] = data
                yield from cache.write(1, off, data, acct)
            elif op[0] == "fsync":
                yield from cache.fsync(1, acct)
        yield from cache.fsync(1, acct)  # final barrier

    env.run(until=env.process(driver()))
    cache.crash()
    assert dev.peek(10, FILE_PAGES) == bytes(reference)
