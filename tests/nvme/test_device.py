"""NVMe device tests: data plane round-trips, FDP stream routing."""

import pytest

from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.nvme import DeallocateCmd, NvmeDevice, ReadCmd, WriteCmd, split_pages
from repro.sim import Environment

FAST = NandTiming(page_read=1e-6, page_program=2e-6, block_erase=10e-6,
                  channel_transfer=0.0)
CFG = FtlConfig(op_ratio=0.25, gc_trigger_segments=3, gc_stop_segments=4,
                gc_reserve_segments=2)


def make_device(fdp=False, segments=16):
    env = Environment()
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=segments,
                      pages_per_block=8)
    dev = NvmeDevice(env, g, FAST, CFG, fdp=fdp)
    return env, dev


def submit(env, dev, cmd):
    out = []

    def proc():
        r = yield from dev.submit(cmd)
        out.append(r)

    p = env.process(proc())
    env.run(until=p)
    return out[0]


def test_write_read_roundtrip():
    env, dev = make_device()
    page = dev.lba_size
    payload = bytes(range(256)) * (page // 256)
    submit(env, dev, WriteCmd(lba=3, nlb=1, data=[payload]))
    got = submit(env, dev, ReadCmd(lba=3, nlb=1))
    assert got == [payload]


def test_pages_are_stored_and_read_back_by_reference():
    """The page is the unit of the data plane: a write's page objects
    are stored as they are, and a read completes with those objects."""
    env, dev = make_device()
    page = dev.lba_size
    pages = split_pages(bytes([3]) * page + bytes([4]) * page, page)
    submit(env, dev, WriteCmd(lba=6, nlb=2, data=pages))
    got = submit(env, dev, ReadCmd(lba=6, nlb=2))
    assert got[0] is pages[0] and got[1] is pages[1]
    assert dev.pages(6, 2)[1] is pages[1]
    assert dev.peek(6, 2) == b"".join(pages)


def test_multipage_write_roundtrip():
    env, dev = make_device()
    page = dev.lba_size
    payload = bytes([7]) * page + bytes([9]) * page
    submit(env, dev, WriteCmd(lba=0, nlb=2, data=split_pages(payload, page)))
    assert b"".join(submit(env, dev, ReadCmd(lba=0, nlb=2))) == payload
    assert dev.stats.pages_written == 2


def test_read_unwritten_returns_zeroes():
    env, dev = make_device()
    got = submit(env, dev, ReadCmd(lba=5, nlb=1))
    assert got == [bytes(dev.lba_size)]


def test_write_without_data_stores_zero_page():
    env, dev = make_device()
    submit(env, dev, WriteCmd(lba=2, nlb=1))
    assert dev.peek(2) == bytes(dev.lba_size)


def test_data_length_must_match_nlb():
    env, dev = make_device()
    page = dev.lba_size
    with pytest.raises(ValueError):
        submit(env, dev, WriteCmd(lba=0, nlb=2, data=[bytes(page)]))
    with pytest.raises(ValueError):
        submit(env, dev, WriteCmd(lba=0, nlb=1, data=[b"short"]))
    with pytest.raises(ValueError):  # a mutable page could change in place
        submit(env, dev, WriteCmd(lba=0, nlb=1, data=[bytearray(page)]))
    with pytest.raises(ValueError):
        split_pages(b"short", page)


def test_extent_bounds_enforced():
    env, dev = make_device()
    with pytest.raises(ValueError):
        submit(env, dev, ReadCmd(lba=dev.num_lbas, nlb=1))
    with pytest.raises(ValueError):
        submit(env, dev, WriteCmd(lba=dev.num_lbas - 1, nlb=2,
                                  data=[bytes(dev.lba_size)] * 2))


def test_command_validation():
    with pytest.raises(ValueError):
        WriteCmd(lba=-1, nlb=1)
    with pytest.raises(ValueError):
        ReadCmd(lba=0, nlb=0)
    with pytest.raises(ValueError):
        WriteCmd(lba=0, nlb=1, pid=-1)


def test_deallocate_drops_data_and_mapping():
    env, dev = make_device()
    page = dev.lba_size
    submit(env, dev, WriteCmd(lba=0, nlb=2, data=[bytes([1]) * page] * 2))
    submit(env, dev, DeallocateCmd(lba=0, nlb=2))
    assert dev.peek(0, 2) == bytes(2 * page)
    assert dev.ftl.mapped_ppn(0) == -1
    assert dev.stats.deallocate_cmds == 1


def test_conventional_device_ignores_pid():
    env, dev = make_device(fdp=False)
    page = dev.lba_size
    # arbitrary PID on purpose: conventional devices must ignore it
    submit(env, dev, WriteCmd(lba=0, nlb=1, data=[bytes(page)], pid=5))  # slimlint: ignore[SLIM002]
    # single registered stream on conventional device
    assert dev.ftl.stream_ids == [0]


def test_fdp_device_routes_pid_to_stream():
    env, dev = make_device(fdp=True)
    page = dev.lba_size
    # arbitrary in-range PID: the test is the PID→stream routing itself
    submit(env, dev, WriteCmd(lba=0, nlb=1, data=[bytes(page)], pid=3))  # slimlint: ignore[SLIM002]
    ppn = dev.ftl.mapped_ppn(0)
    seg = dev.geometry.segment_of_page(ppn)
    assert dev.ftl.segment_stream(seg) == 3


def test_fdp_out_of_range_pid_falls_back_to_default():
    env, dev = make_device(fdp=True)
    page = dev.lba_size
    # deliberately out-of-range PID: the fallback is what's under test
    submit(env, dev, WriteCmd(lba=0, nlb=1, data=[bytes(page)], pid=99))  # slimlint: ignore[SLIM002]
    ppn = dev.ftl.mapped_ppn(0)
    seg = dev.geometry.segment_of_page(ppn)
    assert dev.ftl.segment_stream(seg) == 0


def test_fdp_supports_eight_pids_like_paper_device():
    env, dev = make_device(fdp=True)
    assert dev.num_pids == 8
    assert dev.ftl.stream_ids == list(range(8))


def test_write_latency_recorded():
    """The device counts the command and the clock carries its latency;
    the callers (block layer, rings) book it into their histograms."""
    env, dev = make_device()
    submit(env, dev, WriteCmd(lba=0, nlb=1, data=[bytes(dev.lba_size)]))
    assert dev.stats.write_cmds == 1
    assert env.now > 0


def test_multipage_write_uses_die_parallelism():
    env, dev = make_device()
    page = dev.lba_size
    t0 = env.now
    submit(env, dev, WriteCmd(lba=0, nlb=2, data=[bytes(page)] * 2))
    # 2 pages on 2 dies: duration ~one program, not two
    assert env.now - t0 == pytest.approx(2e-6)


def test_capacity_properties():
    env, dev = make_device()
    assert dev.capacity_bytes == dev.num_lbas * dev.lba_size
    assert dev.num_lbas < dev.geometry.total_pages  # overprovisioning
    assert dev.waf == 1.0


def test_unknown_command_type_rejected():
    env, dev = make_device()

    class Bogus:
        pass

    def proc():
        yield from dev.submit(Bogus())

    env.process(proc())
    with pytest.raises(TypeError):
        env.run()
