"""LBA partitions: rebasing, bounds enforcement, even carving."""

import pytest

from repro.nvme import LbaPartition, ReadCmd, WriteCmd, partition_evenly

from tests.nvme.test_device import make_device, submit


def submit_part(env, part, cmd):
    out = []

    def proc():
        r = yield from part.submit(cmd)
        out.append(r)

    p = env.process(proc())
    env.run(until=p)
    return out[0]


def test_partition_evenly_tiles_namespace():
    env, dev = make_device()
    parts = partition_evenly(dev, 4)
    assert len(parts) == 4
    assert [p.name for p in parts] == ["shard0", "shard1", "shard2", "shard3"]
    assert all(p.num_lbas == dev.num_lbas // 4 for p in parts)
    for a, b in zip(parts, parts[1:]):
        assert a.base + a.num_lbas == b.base


def test_rebase_and_isolation():
    env, dev = make_device()
    p0, p1 = partition_evenly(dev, 2)
    page = dev.lba_size
    payload = b"\xAB" * page
    submit_part(env, p1, WriteCmd(lba=3, nlb=1, data=[payload]))
    # the write landed at the device-global offset...
    assert dev.peek(p1.base + 3) == payload
    # ...is readable back through the partition at its local LBA...
    assert submit_part(env, p1, ReadCmd(lba=3, nlb=1)) == [payload]
    assert p1.peek(3) == payload
    assert p1.pages(3)[0] is dev.pages(p1.base + 3)[0]
    # ...and is invisible at partition 0's local LBA 3
    assert p0.peek(3) != payload
    assert p1.written_lbas() == 1
    assert p0.written_lbas() == 0


def test_out_of_range_extents_rejected():
    env, dev = make_device()
    part = partition_evenly(dev, 2)[0]
    with pytest.raises(ValueError, match="outside partition"):
        submit_part(env, part, WriteCmd(lba=part.num_lbas, nlb=1,
                                        data=[b"\x00" * dev.lba_size]))
    with pytest.raises(ValueError, match="outside partition"):
        part.peek(part.num_lbas)


def test_partition_constructor_validation():
    env, dev = make_device()
    with pytest.raises(ValueError):
        LbaPartition(dev, 0, 0)
    with pytest.raises(ValueError):
        LbaPartition(dev, dev.num_lbas - 4, 8)


def test_partition_evenly_validation():
    env, dev = make_device()
    with pytest.raises(ValueError):
        partition_evenly(dev, 0)
    with pytest.raises(ValueError):
        partition_evenly(dev, dev.num_lbas)  # below minimum layout


def test_partition_passthrough_surface():
    env, dev = make_device(fdp=True)
    part = partition_evenly(dev, 2)[1]
    assert part.lba_size == dev.lba_size
    assert part.fdp is True
    assert part.num_pids == dev.num_pids
    assert part.ftl is dev.ftl
    assert part.capacity_bytes == part.num_lbas * dev.lba_size
