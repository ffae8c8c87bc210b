"""The front end against the real stacks it was built to serve.

Two wirings the unit tests' fake backends can't cover: the cluster
router (slot-hash fan-out behind one listener) and a power cut landing
while connections still hold queued commands (every acked write must
be recoverable — Always logging makes ack mean durable). Plus the
openloop experiment's traced point, which must trace only the load it
offers.
"""

from repro.cluster import ClusterConfig, build_cluster
from repro.core import SlimIOSystem, SystemConfig
from repro.persist import LoggingPolicy, SnapshotKind
from repro.faults import FaultyDevice, PowerCutSpec
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp
from repro.net import (
    MIXES,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
    run_open_loop,
)
from repro.nvme import NvmeDevice
from repro.sim import Environment
from repro.workloads import make_key, make_value
from tests.net import client as tcl

SMALL_SYSTEM = SystemConfig(
    geometry=FlashGeometry(channels=1, dies_per_channel=2,
                           blocks_per_die=64, pages_per_block=16),
    nand=NandTiming(page_read=2e-6, page_program=5e-6, block_erase=20e-6,
                    channel_transfer=0.0),
    ftl=FtlConfig(op_ratio=0.2, gc_trigger_segments=3, gc_stop_segments=4,
                  gc_reserve_segments=2),
    wal_flush_interval=0.01,
    fs_extent_pages=16,
)


def test_cluster_router_serves_open_loop_traffic():
    """One listener, N shards: the router duck-types Server.execute,
    so the front end drives a whole cluster unchanged."""
    cluster = build_cluster(config=ClusterConfig(
        num_shards=2, design="slimio", system=SMALL_SYSTEM))
    env = cluster.env
    fe = NetFrontend(env, cluster.router, NetConfig(pipeline_depth=4))
    times = PoissonArrivals(5_000, seed=3).times(0.02, t0=env.now)
    stream = OpStream(MIXES["ycsb_a"], len(times), 200, value_size=256,
                      seed=5)
    run_open_loop(env, fe, stream, times, clients=4, horizon=0.2)
    assert fe.issued > 0
    assert fe.completed == fe.issued
    assert sum(cluster.router.routed) == fe.completed
    # CRC16 slot hashing spreads the keyspace over both shards
    assert all(n > 0 for n in cluster.router.routed)
    cluster.stop()


def _recover(config, image):
    env = Environment()
    device = NvmeDevice(env, config.geometry, config.nand, config.ftl,
                        fdp=config.fdp, num_pids=8)
    device.load_image(image)
    system = SlimIOSystem(env, config, device=device)
    proc = env.process(system.recover(SnapshotKind.WAL_TRIGGERED),
                       name="recovery")
    return env.run(until=proc)


def test_power_cut_with_queued_connections_keeps_acked_prefix():
    """Cut power while per-connection queues are non-empty: recovery
    must surface every acked SET and invent nothing."""
    from dataclasses import replace

    config = replace(SMALL_SYSTEM, policy=LoggingPolicy.ALWAYS)
    env = Environment()
    device = NvmeDevice(env, config.geometry, config.nand, config.ftl,
                        fdp=config.fdp, num_pids=8)
    faulty = FaultyDevice(device, power=PowerCutSpec(at_page_write=40))
    system = SlimIOSystem(env, config, device=faulty)

    acked: list[ClientOp] = []

    class RecordingBackend:
        """Ack = server.execute returned; under Always logging that
        means the WAL write completed on the (not yet dead) device."""

        def execute(self, op):
            result = yield from system.server.execute(op)
            acked.append(op)
            return result

    fe = NetFrontend(env, RecordingBackend(),
                     NetConfig(pipeline_depth=8, conn_queue=8))
    conns = []

    def opener():
        for _ in range(4):
            conns.append((yield from tcl.connect(fe.listener)))

    env.run(until=env.process(opener(), name="opener"))

    def client(conn, base):
        for i in range(24):
            key = make_key(base + i)
            yield from tcl.send(conn, 
                (ClientOp("SET", key, make_value(key, 256)),), env.now)
        yield from tcl.drain(conn)

    for n, conn in enumerate(conns):
        env.process(client(conn, n * 24), name=f"cl{n}")
    env.run(until=1.0)  # the cut leaves hung dispatchers; just move on

    issued = fe.issued
    assert faulty.obs.total("faults_power_cuts_total") == 1
    assert 0 < len(acked) < issued  # queued commands died with the cut

    result = _recover(config, faulty.inner.image())
    recovered = dict(result.data)
    sent = {}
    for n in range(4):
        for i in range(24):
            key = make_key(n * 24 + i)
            sent[key] = make_value(key, 256)
    # acked ⊆ recovered: nothing the server acknowledged may vanish
    for op in acked:
        assert recovered.get(op.key) == op.value
    # recovered ⊆ issued: recovery must not invent keys or values
    for key, value in recovered.items():
        assert sent.get(key) == value


def test_openloop_experiment_traces_only_open_loop_requests():
    """The tracer is attached after the store fill: every kept trace is
    rooted at the front end and the tracer saw exactly the commands the
    open loop issued (the fill's SETs used to be traced too, as
    server-rooted requests ahead of the first arrival)."""
    from repro.bench.experiments import _openloop_run
    from repro.bench.scales import TEST_SCALE

    _, fe, tracer = _openloop_run(TEST_SCALE, 25_000, trace=True)
    assert tracer.kept
    assert all(ctx.root.layer == "net" for ctx in tracer.kept.values())
    assert tracer.requests_seen == fe.issued > 0
