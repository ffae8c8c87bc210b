"""Read-ahead buffer correctness: any access pattern returns the same
bytes a direct device read would."""

from hypothesis import given, settings, strategies as st

from repro.core import ReadAheadBuffer
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import CpuAccount, PassthruQueuePair
from repro.nvme import NvmeDevice, WriteCmd, split_pages
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)

NPAGES = 12


def seeded_world():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    dev = NvmeDevice(env, g, FAST, CFG)
    page = dev.lba_size
    payload = bytes(
        (i * 37 + j) % 256 for i in range(NPAGES) for j in range(page)
    )

    def seed():
        # raw seeding of device state for the read-side fixture
        yield from dev.submit(  # slimlint: ignore[SLIM001]
            WriteCmd(lba=5, nlb=NPAGES,  # slimlint: ignore[SLIM007]
                     data=split_pages(payload, page))
        )

    env.run(until=env.process(seed()))
    ring = PassthruQueuePair(env, dev)
    return env, dev, ring, payload


@st.composite
def read_plan(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    total = NPAGES * 4096
    reads = []
    for _ in range(n):
        off = draw(st.integers(min_value=0, max_value=total - 1))
        length = draw(st.integers(min_value=0, max_value=total - off))
        reads.append((off, length))
    return reads


@given(read_plan(),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_reads_match_ground_truth(reads, window, batch):
    env, dev, ring, payload = seeded_world()
    ra = ReadAheadBuffer(ring, base_lba=5, npages=NPAGES,
                         window_pages=window, batch_pages=batch)
    acct = CpuAccount(env, "reader")

    def driver():
        out = []
        for off, length in reads:
            data = yield from ra.read(off, length, acct)
            out.append(data)
        return out

    results = env.run(until=env.process(driver()))
    for (off, length), data in zip(reads, results):
        assert data == payload[off:off + length]


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=10, deadline=None)
def test_sequential_scan_always_exact(window):
    env, dev, ring, payload = seeded_world()
    ra = ReadAheadBuffer(ring, base_lba=5, npages=NPAGES,
                         window_pages=window, batch_pages=4)
    acct = CpuAccount(env, "reader")

    def driver():
        out = bytearray()
        pos = 0
        total = len(payload)
        while pos < total:
            n = min(3001, total - pos)  # deliberately unaligned stride
            data = yield from ra.read(pos, n, acct)
            out.extend(data)
            pos += n
        return bytes(out)

    assert env.run(until=env.process(driver())) == payload


def test_concurrent_prefetchers_never_duplicate_a_batch(monkeypatch):
    """Regression (slimflow SLIM010): ``_prefetch`` read the cursor,
    parked in ``ring.submit``, and only then advanced it — so a second
    process driving the same buffer re-submitted the same batch while
    the first was parked. The cursor must be reserved before the yield.
    """
    env, dev, ring, payload = seeded_world()
    ra = ReadAheadBuffer(ring, base_lba=5, npages=NPAGES,
                         window_pages=NPAGES, batch_pages=2)
    submitted = []
    orig = ring.submit

    def counting_submit(cmd, account):
        submitted.append((cmd.lba, cmd.nlb))
        return orig(cmd, account)

    monkeypatch.setattr(ring, "submit", counting_submit)
    a1, a2 = CpuAccount(env, "r1"), CpuAccount(env, "r2")
    p1 = env.process(ra._prefetch(a1))
    p2 = env.process(ra._prefetch(a2))
    env.run(until=env.all_of([p1, p2]))

    # every page prefetched exactly once, between the two of them
    starts = [lba for lba, _ in submitted]
    assert len(starts) == len(set(starts)), f"duplicate batches: {submitted}"
    covered = sorted(lba + i for lba, nlb in submitted for i in range(nlb))
    assert covered == list(range(5, 5 + NPAGES))

    # and the buffer still serves correct bytes afterwards
    def check():
        data = yield from ra.read(0, len(payload), a1)
        return data

    assert env.run(until=env.process(check())) == payload
