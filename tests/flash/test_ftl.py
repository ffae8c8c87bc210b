"""FTL tests: mapping, GC, WAF, stream separation."""

import pytest

from repro.flash import FlashGeometry, FlashTranslationLayer, FtlConfig, NandTiming
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)


def make_ftl(segments=16, pages_per_block=8, dies=2, op=0.25, streams=(0,),
             config=None):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=dies, blocks_per_die=segments,
                      pages_per_block=pages_per_block)
    cfg = config or FtlConfig(op_ratio=op, gc_trigger_segments=3,
                              gc_stop_segments=4, gc_reserve_segments=2)
    ftl = FlashTranslationLayer(env, g, FAST, cfg)
    for s in streams:
        ftl.register_stream(s)
    return env, ftl


def run_writes(env, ftl, lpns, stream=0):
    def writer():
        for lpn in lpns:
            yield from ftl.write_burst(lpn, 1, stream)

    p = env.process(writer())
    env.run(until=p)


def test_write_then_mapped():
    env, ftl = make_ftl()
    run_writes(env, ftl, [0, 1, 2])
    assert ftl.mapped_ppn(0) >= 0
    assert ftl.mapped_ppn(1) == ftl.mapped_ppn(0) + 1  # sequential placement
    ftl.check_invariants()


def test_overwrite_invalidates_old_page():
    env, ftl = make_ftl()
    run_writes(env, ftl, [5, 5, 5])
    seg0 = 0
    # two stale versions + one live in the open segment
    assert ftl.segment_valid_count(seg0) == 1
    ftl.check_invariants()


def test_unknown_stream_rejected():
    env, ftl = make_ftl()

    def writer():
        yield from ftl.write_burst(0, 1, 99)

    env.process(writer())
    with pytest.raises(ValueError):
        env.run()


def test_lpn_bounds_checked():
    env, ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.mapped_ppn(ftl.num_lpns)
    with pytest.raises(ValueError):
        ftl.deallocate(ftl.num_lpns - 1, 2)


def test_deallocate_clears_mapping():
    env, ftl = make_ftl()
    run_writes(env, ftl, [0, 1, 2, 3])
    ftl.deallocate(0, 4)
    for lpn in range(4):
        assert ftl.mapped_ppn(lpn) == -1
    assert ftl.segment_valid_count(0) == 0
    ftl.check_invariants()


def test_deallocate_unmapped_is_noop():
    env, ftl = make_ftl()
    ftl.deallocate(0, 8)
    ftl.check_invariants()


def test_read_unmapped_returns_false():
    env, ftl = make_ftl()

    results = []

    def reader():
        sensed = yield from ftl.read_burst(3, 1)
        results.append(sensed)

    p = env.process(reader())
    env.run(until=p)
    assert results == [0]
    assert env.now == 0.0  # unmapped pages cost nothing


def test_read_mapped_returns_true_and_costs_time():
    env, ftl = make_ftl()
    run_writes(env, ftl, [3])
    t0 = env.now
    results = []

    def reader():
        sensed = yield from ftl.read_burst(3, 1)
        results.append(sensed)

    p = env.process(reader())
    env.run(until=p)
    assert results == [1]
    assert env.now > t0


def test_gc_reclaims_overwritten_segments():
    env, ftl = make_ftl(segments=8, pages_per_block=4, dies=2, op=0.25)
    pages_per_seg = ftl.geometry.pages_per_segment
    # hammer a small working set so most pages become stale
    lpns = list(range(pages_per_seg)) * 12
    run_writes(env, ftl, lpns)
    assert ftl.stats.segments_erased > 0
    assert ftl.free_segments >= ftl.config.gc_reserve_segments
    ftl.check_invariants()


def test_waf_accounting_exceeds_one_with_mixed_lifetimes():
    """Cold data + hot overwrites in ONE stream -> GC must copy cold pages."""
    env, ftl = make_ftl(segments=10, pages_per_block=4, dies=2, op=0.25)
    pages_per_seg = ftl.geometry.pages_per_segment
    cold = list(range(2 * pages_per_seg))                     # written once
    hot = list(range(2 * pages_per_seg, 2 * pages_per_seg + 4)) * (
        6 * pages_per_seg
    )  # overwritten many times, interleaving segments with cold
    trace = []
    for i, c in enumerate(cold):
        trace.append(c)
        trace.extend(hot[i * 3 : i * 3 + 3])
    trace.extend(hot[len(cold) * 3 :])
    run_writes(env, ftl, trace)
    assert ftl.stats.gc_pages_copied > 0
    assert ftl.stats.waf > 1.0
    ftl.check_invariants()


def test_stream_separation_keeps_waf_at_one():
    """Same trace as mixed test but cold/hot in separate streams (FDP)."""
    env, ftl = make_ftl(segments=10, pages_per_block=4, dies=2, op=0.25,
                        streams=(0, 1))
    pages_per_seg = ftl.geometry.pages_per_segment
    n_cold = 2 * pages_per_seg
    hot_lpns = [n_cold + (i % 4) for i in range(6 * pages_per_seg)]

    def writer():
        hot_i = 0
        for c in range(n_cold):
            yield from ftl.write_burst(c, 1, 0)   # cold stream
            for _ in range(3):
                if hot_i < len(hot_lpns):
                    # hot stream
                    yield from ftl.write_burst(hot_lpns[hot_i], 1, 1)
                    hot_i += 1
        while hot_i < len(hot_lpns):
            yield from ftl.write_burst(hot_lpns[hot_i], 1, 1)
            hot_i += 1

    p = env.process(writer())
    env.run(until=p)
    # GC only ever elects fully-invalid (hot) segments: no copies
    assert ftl.stats.waf == pytest.approx(1.0)
    ftl.check_invariants()


def test_streams_never_share_segments():
    env, ftl = make_ftl(streams=(0, 1, 2))
    pages = ftl.geometry.pages_per_segment

    def writer():
        for i in range(pages // 2):
            yield from ftl.write_burst(i, 1, 0)
            yield from ftl.write_burst(pages + i, 1, 1)
            yield from ftl.write_burst(2 * pages + i, 1, 2)

    p = env.process(writer())
    env.run(until=p)
    owners = {}
    for lpn in range(3 * pages):
        ppn = ftl.mapped_ppn(lpn)
        if ppn < 0:
            continue
        seg = ftl.geometry.segment_of_page(ppn)
        stream = lpn // pages
        owners.setdefault(seg, stream)
        assert owners[seg] == stream, "segment shared between streams"
    ftl.check_invariants()


def test_duplicate_stream_registration_rejected():
    env, ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.register_stream(0)


def test_host_stall_time_under_pressure():
    env, ftl = make_ftl(segments=8, pages_per_block=4, dies=2, op=0.25)
    pages_per_seg = ftl.geometry.pages_per_segment
    lpns = list(range(pages_per_seg)) * 16
    run_writes(env, ftl, lpns)
    # with only 8 segments the writer must have waited for GC at least once
    assert ftl.obs.total("ftl_alloc_stalls_total") > 0
    assert ftl.stats.host_stall_time > 0


def test_erase_counts_tracked():
    env, ftl = make_ftl(segments=8, pages_per_block=4, dies=2, op=0.25)
    pages_per_seg = ftl.geometry.pages_per_segment
    run_writes(env, ftl, list(range(pages_per_seg)) * 12)
    total_erases = sum(ftl.erase_count(s) for s in range(ftl.geometry.segments))
    assert total_erases == ftl.stats.segments_erased


def test_config_validation():
    with pytest.raises(ValueError):
        FtlConfig(op_ratio=0.9)
    with pytest.raises(ValueError):
        FtlConfig(gc_trigger_segments=1, gc_reserve_segments=2)
    with pytest.raises(ValueError):
        FtlConfig(gc_stop_segments=1, gc_trigger_segments=4)


def test_geometry_too_small_for_watermarks_rejected():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=1, blocks_per_die=3,
                      pages_per_block=4)
    with pytest.raises(ValueError):
        FlashTranslationLayer(env, g, FAST, FtlConfig(
            op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
            gc_reserve_segments=2))
