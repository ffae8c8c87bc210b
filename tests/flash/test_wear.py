"""Wear/endurance accounting tests."""

import pytest

from repro.flash import FlashGeometry, FlashTranslationLayer, FtlConfig, NandTiming
from repro.flash.wear import wear_report
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)


def churned_ftl(writes=600):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=8,
                      pages_per_block=4)
    cfg = FtlConfig(op_ratio=0.25, gc_trigger_segments=3, gc_stop_segments=4,
                    gc_reserve_segments=2)
    ftl = FlashTranslationLayer(env, g, FAST, cfg)
    ftl.register_stream(0)

    def writer():
        for i in range(writes):
            yield from ftl.write_burst(i % 8, 1, 0)

    env.run(until=env.process(writer()))
    return ftl


def test_report_consistency():
    ftl = churned_ftl()
    rep = wear_report(ftl)
    assert rep.total_erases == ftl.stats.segments_erased
    assert rep.max_erases >= rep.mean_erases_per_segment >= rep.min_erases
    assert rep.wear_skew >= 1.0
    assert rep.waf == ftl.stats.waf
    assert rep.host_bytes_written == 600 * 4096


def test_fresh_device_report():
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=8,
                      pages_per_block=4)
    ftl = FlashTranslationLayer(env, g, FAST, FtlConfig(
        op_ratio=0.25, gc_trigger_segments=3, gc_stop_segments=4,
        gc_reserve_segments=2))
    rep = wear_report(ftl)
    assert rep.total_erases == 0
    assert rep.wear_skew == 1.0
    assert rep.remaining_host_bytes > 0


def test_lifetime_multiplier():
    ftl = churned_ftl()
    good = wear_report(ftl)
    import dataclasses

    bad = dataclasses.replace(good, write_cost=2.0, waf=2.0)
    assert good.lifetime_multiplier(bad) == pytest.approx(
        2.0 / good.write_cost)


def test_remaining_bytes_shrinks_with_wear():
    small = wear_report(churned_ftl(writes=200))
    large = wear_report(churned_ftl(writes=1200))
    assert large.remaining_host_bytes <= small.remaining_host_bytes


def test_endurance_validation():
    ftl = churned_ftl(writes=10)
    with pytest.raises(ValueError):
        wear_report(ftl, endurance_cycles=0)
