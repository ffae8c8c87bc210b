"""Hostile metadata pages: CRC-valid copies no layout state can be.

``MetadataCodec.decode`` only checks the magic and CRC, so a copy can
pass it and still name a slot role outside ``SlotRole``, a snapshot
longer than its slot, or a WAL head / generation start outside the
live window. Such a copy must be rejected like a torn one: the store
and recovery fall back to the other copy (and recover exactly what a
torn copy would let them recover), or raise ``MetadataError`` when no
copy is left, never a bare ``ValueError``/``IndexError``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LoggingPolicy, SnapshotKind, SystemConfig, build_slimio
from repro.core import (
    LbaLayout,
    Metadata,
    MetadataCodec,
    MetadataError,
    MetadataStore,
    SlimIOSystem,
)
from repro.core.verify import verify_lba_space
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig
from repro.kernel import CpuAccount, KernelCosts, PassthruQueuePair
from repro.nvme import NvmeDevice
from repro.persist.encoding import CorruptRecord
from repro.sim import Environment

SMALL = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2, blocks_per_die=64,
                           pages_per_block=16),
    nand=NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                    channel_transfer=0.5e-6),
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    policy=LoggingPolicy.ALWAYS,
    server=ServerConfig(wal_snapshot_trigger_bytes=40_000,
                        snapshot_chunk_entries=16),
    wal_flush_interval=0.01,
)
U64 = (1 << 64) - 2  # the largest vpn the codec can carry (max = "no prev")


def _device(env: Environment, image: dict[int, bytes] | None = None,
            ) -> NvmeDevice:
    dev = NvmeDevice(env, SMALL.geometry, SMALL.nand, SMALL.ftl, fdp=True,
                     num_pids=8)
    if image is not None:
        dev.load_image(image)
    return dev


@pytest.fixture(scope="module")
def crashed_image():
    """A power-cut image holding a WAL-triggered and an On-Demand
    snapshot, a rotated WAL and both metadata copies valid."""
    system = build_slimio(config=SMALL)
    env = system.env

    def filler():
        for i in range(180):
            yield from system.server.execute(
                ClientOp("SET", b"key%d" % (i % 70), bytes([i % 251]) * 400))

    env.run(until=env.process(filler()))
    env.run(until=system.server.start_snapshot(SnapshotKind.ON_DEMAND))
    image = system.device.image()
    system.stop()
    return image


def _layout() -> LbaLayout:
    dev = _device(Environment())
    return LbaLayout.partition(dev.num_lbas,
                               snapshot_fraction=SMALL.snapshot_fraction)


LAYOUT = _layout()
PAGE = 4096
SLOT_BYTES = LAYOUT.slot_lbas * PAGE
WAL = LAYOUT.wal_lbas


def _vpn():
    return st.one_of(st.integers(0, 3 * WAL), st.integers(0, U64))


@st.composite
def hostile_metadata(draw, seqno=st.integers(0, 1 << 20)):
    """Any record the codec will carry: legal ones, near misses and
    wild values in every field."""
    roles = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 255)),
                          min_size=3, max_size=3))
    lengths = draw(st.lists(
        st.one_of(st.integers(0, SLOT_BYTES),
                  st.integers(SLOT_BYTES - 2, SLOT_BYTES + 2),
                  st.integers(0, (1 << 64) - 1)),
        min_size=3, max_size=3))
    gen_start = draw(_vpn())
    head = draw(st.one_of(
        st.integers(max(0, gen_start - 2), min(U64, gen_start + WAL + 2)),
        _vpn()))
    prev = draw(st.one_of(
        st.none(),
        st.integers(max(0, gen_start - WAL - 2), min(U64, gen_start + 2)),
        _vpn()))
    prev_bytes = draw(st.one_of(st.integers(0, 4 * WAL * PAGE),
                                st.integers(0, (1 << 64) - 1)))
    return Metadata(seqno=draw(seqno), wal_gen_start=gen_start,
                    wal_head=head, wal_prev_start=prev,
                    wal_prev_bytes=prev_bytes, slot_roles=roles,
                    slot_lengths=lengths)


def _store_read(pages: dict[int, bytes]):
    env = Environment()
    dev = _device(env, pages)
    store = MetadataStore(PassthruQueuePair(env, dev, KernelCosts()), LAYOUT)
    proc = env.process(store.read(CpuAccount(env, "meta")))
    return env.run(until=proc)


@settings(max_examples=150, deadline=None)
@given(hostile=hostile_metadata(),
       other=st.one_of(st.none(), st.builds(
           Metadata, seqno=st.integers(0, 1 << 20),
           wal_gen_start=st.integers(0, 50), wal_head=st.integers(50, 60))),
       hostile_copy=st.sampled_from([0, 1]))
def test_store_read_rejects_impossible_copies(hostile, other, hostile_copy):
    pages = {hostile_copy: MetadataCodec.encode(hostile, PAGE)}
    if other is not None:
        pages[hostile_copy ^ 1] = MetadataCodec.encode(other, PAGE)
    legal = hostile.problem(LAYOUT, PAGE) is None
    candidates = [m for m, ok in ((hostile, legal), (other, other is not None))
                  if ok]
    if not candidates:
        with pytest.raises(MetadataError, match=f"copy {hostile_copy}: "):
            _store_read(pages)
        return
    got = _store_read(pages)
    assert got == max(candidates, key=lambda m: m.seqno)


def test_store_read_names_every_rejected_copy():
    bad_role = Metadata(slot_roles=[0, 9, 3])
    bad_head = Metadata(wal_gen_start=10, wal_head=9)
    pages = {0: MetadataCodec.encode(bad_role, PAGE),
             1: MetadataCodec.encode(bad_head, PAGE)}
    with pytest.raises(MetadataError) as err:
        _store_read(pages)
    assert "copy 0: slot 1 role 9 is not a SlotRole" in str(err.value)
    assert "copy 1: WAL head 9 precedes generation start 10" in str(err.value)


@pytest.mark.parametrize("meta, reason", [
    (Metadata(slot_roles=[0, 4, 3]), "slot 1 role 4 is not a SlotRole"),
    (Metadata(slot_roles=[1, 2, 3]), "lack exactly one reserve"),
    (Metadata(slot_roles=[0, 0, 3]), "lack exactly one reserve"),
    (Metadata(slot_roles=[0, 2, 2]), "duplicate ONDEMAND_SNAPSHOT slot"),
    (Metadata(slot_lengths=[0, SLOT_BYTES + 1, 0]), "slot 1 claims"),
    (Metadata(wal_gen_start=5, wal_head=4), "precedes generation start"),
    (Metadata(wal_gen_start=5, wal_head=6, wal_prev_start=7),
     "follows current start"),
    (Metadata(wal_gen_start=5, wal_head=6, wal_prev_start=4,
              wal_prev_bytes=PAGE + 1), "bytes > its extent"),
    (Metadata(wal_gen_start=0, wal_head=WAL + 1), "exceeds the WAL region"),
    (Metadata(wal_gen_start=3, wal_head=WAL + 1, wal_prev_start=0),
     "exceeds the WAL region"),
])
def test_problem_names_each_impossible_field(meta, reason):
    assert reason in meta.problem(LAYOUT, PAGE)


def test_problem_accepts_the_edges_of_legal():
    assert Metadata().problem(LAYOUT, PAGE) is None
    assert Metadata(slot_roles=[1, 0, 2], slot_lengths=[SLOT_BYTES, 0, 7],
                    wal_gen_start=9, wal_head=WAL + 4, wal_prev_start=4,
                    wal_prev_bytes=5 * PAGE).problem(LAYOUT, PAGE) is None


def _recover(image: dict[int, bytes]):
    """Boot a fresh system on ``image`` and run On-Demand recovery;
    the outcome is the result or the typed error it raised."""
    env = Environment()
    system = SlimIOSystem(env, SMALL, device=_device(env, image))
    proc = env.process(system.recover(SnapshotKind.ON_DEMAND))
    try:
        result = env.run(until=proc)
    except (MetadataError, CorruptRecord) as exc:
        return type(exc)
    finally:
        system.stop()
    return result.data, result.snapshot_entries


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), both=st.booleans())
def test_recovery_falls_back_or_raises_typed(crashed_image, data, both):
    seqnos = {lba: MetadataCodec.decode(crashed_image[lba]).seqno
              for lba in (0, 1)}
    newest = max(seqnos, key=seqnos.get)
    hostile = data.draw(hostile_metadata(
        seqno=st.integers(seqnos[newest] + 1, seqnos[newest] + 50)))
    legal = hostile.problem(LAYOUT, PAGE) is None
    image = dict(crashed_image)
    image[newest] = MetadataCodec.encode(hostile, PAGE)
    if both:
        image[newest ^ 1] = image[newest]
    outcome = _recover(image)
    if legal:
        # a legal record over foreign flash: recovery may recover
        # something else or fail, but only through a typed error
        return
    if both:
        assert outcome is MetadataError
        assert not verify_lba_space(_device(Environment(), image), LAYOUT).ok
        return
    torn = dict(crashed_image)
    del torn[newest]
    assert outcome == _recover(torn)


def test_recovery_of_untouched_image_is_not_an_error(crashed_image):
    data, entries = _recover(crashed_image)
    assert entries > 0 and len(data) == 70
