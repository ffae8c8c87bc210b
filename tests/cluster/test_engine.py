"""Cluster construction: shared device, PID budgeting, fail-fast."""

import pytest

from repro.cluster import ClusterConfig, SharingMode, build_cluster
from repro.core import SystemConfig
from repro.core.engine import SlimIOSystem
from repro.sim import Environment

from tests.cluster.conftest import SMALL_SYSTEM, make_cluster


def test_shards_share_one_device(two_shards):
    cl = two_shards
    assert len(cl) == 2
    assert [s.name for s in cl] == ["shard0", "shard1"]
    device = cl.device
    for shard in cl:
        assert shard.partition.device is device
    # partitions tile the namespace without overlap
    assert cl[0].partition.base + cl[0].partition.num_lbas \
        == cl[1].partition.base


def test_dedicated_pids_below_the_wall(two_shards):
    pids0 = set(two_shards[0].policy.pids)
    pids1 = set(two_shards[1].policy.pids)
    assert pids0.isdisjoint(pids1)
    assert two_shards.pid_report()["mode"] == "dedicated"


def test_sharing_kicks_in_at_four(four_shards):
    report = four_shards.pid_report()
    assert report["mode"] == "collapse"
    assert report["shared_pids"]  # at least metadata PID 0


def test_explicit_sharing_mode_respected():
    cl = make_cluster(4, sharing=SharingMode.SHARE_WAL)
    assert cl.pid_report()["mode"] == "share-wal"
    cl.stop()


def test_baseline_cluster_has_no_pids():
    cl = make_cluster(2, design="baseline")
    assert all(s.policy is None for s in cl)
    assert cl.pid_report() == {}
    assert cl.device.fdp is False
    cl.stop()


def test_shard_waf_starts_clean(four_shards):
    lifetime = four_shards.device.ftl.lifetime
    for shard in four_shards:
        assert lifetime.waf(shard.policy.pids) == 1.0


def test_attach_obs_labels_shards(four_shards):
    registry = four_shards.attach_obs()
    assert four_shards.obs is registry
    shards = {
        m.labels["shard"]
        for m in registry.instruments()
        if "shard" in m.labels
    }
    assert shards == {"shard0", "shard1", "shard2", "shard3"}


def test_config_validation():
    with pytest.raises(ValueError, match="num_shards"):
        ClusterConfig(num_shards=0)
    with pytest.raises(ValueError, match="design"):
        ClusterConfig(design="redis")


def test_oversubscribed_policy_fails_at_build_time():
    # the default 4-PID policy cannot land on a 2-PID device: the
    # builder must refuse instead of silently writing stream 0
    env = Environment()
    cfg = SystemConfig(
        geometry=SMALL_SYSTEM.geometry, nand=SMALL_SYSTEM.nand,
        ftl=SMALL_SYSTEM.ftl, num_pids=2,
    )
    with pytest.raises(ValueError, match="PID"):
        SlimIOSystem(env, cfg)


def test_num_pids_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_pids=0)
