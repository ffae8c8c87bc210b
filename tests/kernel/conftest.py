"""Shared fixtures for kernel-path tests."""

import pytest

from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.kernel import BlockLayer, CpuAccount, PageCache
from repro.nvme import NvmeDevice
from repro.sim import Environment

FAST_NAND = NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                       channel_transfer=0.0)
SMALL_FTL = FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                      gc_reserve_segments=2)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def device(env):
    g = FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=24,
                      pages_per_block=16)
    return NvmeDevice(env, g, FAST_NAND, SMALL_FTL)


@pytest.fixture
def block(env, device):
    return BlockLayer(env, device)


@pytest.fixture
def cache(env, block):
    return PageCache(env, block, dirty_limit_bytes=64 * 4096)


@pytest.fixture
def account(env):
    return CpuAccount(env, "test-proc")


def drive(env, gen, name="driver"):
    """Run a generator as a process to completion; return its value."""
    p = env.process(gen, name=name)
    return env.run(until=p)
