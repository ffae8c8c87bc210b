"""Slot routing: the router agrees with the map and serves round-trips."""

from repro.cluster import key_hash_slot
from repro.imdb import ClientOp

from tests.cluster.conftest import drive, route_fill


def test_routing_agrees_with_slot_map(four_shards):
    cl = four_shards
    for key in (b"alpha", b"user:42", b"{tag}suffix", b"x" * 40):
        shard = cl.router.shard_for_key(key)
        assert shard.index == cl.slot_map.shard_for_key(key)
        assert shard.index == cl.slot_map.shard_for_slot(key_hash_slot(key))


def test_execute_round_trip(four_shards):
    cl = four_shards
    keys = route_fill(cl, 40)
    for key in keys[:10]:
        value = drive(cl, cl.router.execute(ClientOp("GET", key)))
        assert value is not None
        owner = cl.router.shard_for_key(key)
        assert owner.server.store.get(key) == value


def test_keys_land_only_on_their_owner(four_shards):
    cl = four_shards
    keys = route_fill(cl, 60)
    for key in keys:
        owner = cl.slot_map.shard_for_key(key)
        for shard in cl:
            present = shard.server.store.get(key) is not None
            assert present == (shard.index == owner)


def test_routed_counters(four_shards):
    cl = four_shards
    route_fill(cl, 50)
    assert sum(cl.router.routed) == 50
    # zipf-free uniform key names touch every shard eventually
    assert all(n >= 0 for n in cl.router.routed)


def test_hash_tags_colocate(four_shards):
    cl = four_shards
    a = cl.router.shard_for_key(b"{user9}.cart")
    b = cl.router.shard_for_key(b"{user9}.profile")
    assert a.index == b.index
