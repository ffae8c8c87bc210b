"""NAND array timing tests: die occupancy and parallelism."""

import pytest

from repro.flash import FlashGeometry, NandArray, NandTiming
from repro.sim import Environment


def small_geom():
    return FlashGeometry(channels=2, dies_per_channel=2, blocks_per_die=4,
                         pages_per_block=8)


def test_single_program_latency():
    env = Environment()
    nand = NandArray(env, small_geom(), NandTiming(channel_transfer=0.0))

    def proc():
        yield nand.program_pages([0])

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(200e-6)
    assert nand.obs.total("nand_page_programs_total") == 1


def test_single_read_latency():
    env = Environment()
    nand = NandArray(env, small_geom(), NandTiming(channel_transfer=0.0))

    def proc():
        yield nand.read_pages([0])

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(40e-6)


def test_same_die_serializes():
    env = Environment()
    g = small_geom()
    nand = NandArray(env, g, NandTiming(channel_transfer=0.0))
    # pages 0 and 4 are on the same die (4 dies, round robin)
    assert g.die_of_page(0) == g.die_of_page(4)

    def proc(ppn):
        yield nand.program_pages([ppn])

    env.process(proc(0))
    env.process(proc(4))
    env.run()
    assert env.now == pytest.approx(400e-6)


def test_different_dies_parallel():
    env = Environment()
    g = small_geom()
    nand = NandArray(env, g, NandTiming(channel_transfer=0.0))

    def proc(ppn):
        yield nand.program_pages([ppn])

    for ppn in range(4):  # four pages on four distinct dies
        env.process(proc(ppn))
    env.run()
    assert env.now == pytest.approx(200e-6)


def test_channel_contention_adds_transfer_time():
    env = Environment()
    g = small_geom()
    t = NandTiming(channel_transfer=10e-6)
    nand = NandArray(env, g, t)
    # dies 0 and 1 share channel 0
    assert g.channel_of_die(0) == g.channel_of_die(1)

    def proc(ppn):
        yield nand.program_pages([ppn])

    env.process(proc(0))  # die 0
    env.process(proc(1))  # die 1, same channel
    env.run()
    # transfers serialize (10+10), programs overlap after each transfer
    assert env.now == pytest.approx(10e-6 + 10e-6 + 200e-6)


def test_erase_segment_parallel_across_dies():
    env = Environment()
    g = small_geom()
    nand = NandArray(env, g, NandTiming(channel_transfer=0.0))

    def proc():
        yield from nand.erase_segment(0)

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(2e-3)  # one erase latency, all dies parallel
    assert nand.obs.total("nand_segment_erases_total") == 1
    assert nand.obs.total("nand_block_erases_total") == g.total_dies


def test_utilization_accounting():
    env = Environment()
    g = small_geom()
    nand = NandArray(env, g, NandTiming(channel_transfer=0.0))

    def proc():
        yield nand.program_pages([0])

    p = env.process(proc())
    env.run(until=p)
    # one die busy 200us out of 4 dies * 200us
    assert nand.utilization() == pytest.approx(0.25)


def test_utilization_zero_at_start():
    env = Environment()
    nand = NandArray(env, small_geom())
    assert nand.utilization() == 0.0
