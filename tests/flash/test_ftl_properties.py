"""Property-based FTL tests: invariants under random write/trim traces."""

from hypothesis import given, settings, strategies as st

from repro.flash import FlashGeometry, FlashTranslationLayer, FtlConfig, NandTiming
from repro.sim import Environment

FAST = NandTiming(page_read=1e-7, page_program=2e-7, block_erase=1e-6,
                  channel_transfer=0.0)


def build(streams):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=10,
                      pages_per_block=4)
    cfg = FtlConfig(op_ratio=0.3, gc_trigger_segments=3, gc_stop_segments=4,
                    gc_reserve_segments=2)
    ftl = FlashTranslationLayer(env, g, FAST, cfg)
    for s in streams:
        ftl.register_stream(s)
    return env, ftl


@st.composite
def trace(draw):
    """A random sequence of (op, lpn, stream) actions."""
    n = draw(st.integers(min_value=1, max_value=300))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["write", "write", "write", "trim"]))
        lpn = draw(st.integers(min_value=0, max_value=40))
        stream = draw(st.integers(min_value=0, max_value=1))
        ops.append((kind, lpn, stream))
    return ops


@given(trace())
@settings(max_examples=40, deadline=None)
def test_invariants_hold_under_random_traces(ops):
    env, ftl = build(streams=(0, 1))
    max_lpn = min(41, ftl.num_lpns)

    def driver():
        for kind, lpn, stream in ops:
            lpn = lpn % max_lpn
            if kind == "write":
                yield from ftl.write_burst(lpn, 1, stream)
            else:
                ftl.deallocate(lpn, 1)

    p = env.process(driver())
    env.run(until=p)
    ftl.check_invariants()
    assert ftl.stats.waf >= 1.0


@given(trace())
@settings(max_examples=25, deadline=None)
def test_latest_write_wins_mapping(ops):
    """After any trace, each lpn's mapping reflects its last operation."""
    env, ftl = build(streams=(0, 1))
    max_lpn = min(41, ftl.num_lpns)
    last: dict[int, str] = {}

    def driver():
        for kind, lpn, stream in ops:
            lpn = lpn % max_lpn
            if kind == "write":
                yield from ftl.write_burst(lpn, 1, stream)
                last[lpn] = "write"
            else:
                ftl.deallocate(lpn, 1)
                last[lpn] = "trim"

    p = env.process(driver())
    env.run(until=p)
    for lpn, op in last.items():
        if op == "write":
            assert ftl.mapped_ppn(lpn) >= 0
        else:
            assert ftl.mapped_ppn(lpn) == -1


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=400))
@settings(max_examples=25, deadline=None)
def test_waf_one_when_everything_is_one_lifetime_class(lpns):
    """A single hot working set in one stream: GC victims are always
    fully-invalid, so WAF must stay exactly 1.0 (the FDP claim)."""
    env, ftl = build(streams=(0,))

    def driver():
        for lpn in lpns:
            yield from ftl.write_burst(lpn % 16, 1, 0)

    p = env.process(driver())
    env.run(until=p)
    # all data is uniformly hot; greedy GC picks 0-valid segments whenever
    # the working set (16 pages = 2 segments) is much smaller than capacity
    assert ftl.stats.waf == 1.0
    ftl.check_invariants()
