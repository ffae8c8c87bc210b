"""Per-layer microbenchmarks: direct calls into one public function on
a freshly built object, fixed input sizes, best of N with quartiles.

Host clock only (``time.process_time``): these are the simulator's own
costs. Each entry states its input size in ``input``; sizes are part of
the benchmark and do not change with ``--smoke``.

    PYTHONPATH=src python -m benchmarks.slimbench.micro
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections.abc import Callable

from repro import build_slimio
from repro.flash import FlashGeometry, FlashTranslationLayer, NandArray
from repro.flash.l2p import L2PMap
from repro.imdb import ClientOp, KVStore
from repro.imdb.resp import RespParser, encode_command
from repro.persist import AofCodec, AofRecord, Compressor, OP_SET, RdbWriter
from repro.sim import Environment, Resource
from repro.workloads import make_key, make_value

__all__ = ["MICROS", "run_micros"]

_GEOMETRY = dict(mb=64, channels=4, dies_per_channel=8, pages_per_block=8)


def _values(n: int, size: int) -> list[tuple[bytes, bytes]]:
    return [(make_key(i), make_value(make_key(i), size)) for i in range(n)]


def _timeout():
    n = 20_000
    env = Environment()

    def body():
        def ticker():
            for _ in range(n):
                yield env.timeout(1e-6)
        env.run(until=env.process(ticker()))
    return body, n, f"{n} env.timeout(1us) in one process"


def _resource_handoff():
    n = 10_000
    env = Environment()
    res = Resource(env, 1)

    def body():
        def worker():
            for _ in range(n // 2):
                req = res.request()
                yield req
                yield env.timeout(1e-6)
                res.release(req)
        procs = [env.process(worker()) for _ in range(2)]
        for p in procs:
            env.run(until=p)
    return body, n, f"{n} request/release handoffs, 2 contenders"


def _nand_program(burst: int):
    def make():
        bursts = 2048 // burst
        env = Environment()
        nand = NandArray(env, FlashGeometry.scaled(**_GEOMETRY))

        def body():
            def go():
                for b in range(bursts):
                    yield nand.program_pages(
                        list(range(b * burst, (b + 1) * burst)))
            env.run(until=env.process(go()))
        return body, bursts * burst, f"2048 pages in bursts of {burst}"
    return make


def _write_burst():
    pages, burst = 4096, 64
    env = Environment()
    ftl = FlashTranslationLayer(env, FlashGeometry.scaled(**_GEOMETRY))
    ftl.register_stream(0)

    def body():
        def go():
            for b in range(pages // burst):
                yield from ftl.write_burst(b * burst, burst, 0)
        env.run(until=env.process(go()))
    return body, pages, f"{pages} pages, write_burst of {burst}"


def _l2p_map():
    n = 100_000
    m = L2PMap(n, n)

    def body():
        for i in range(n):
            m.map(i, i)
        for i in range(n):
            m.unmap(i)
    return body, 2 * n, f"{n} map + {n} unmap"


def _wal_stage_flush():
    n = 2_000
    system = build_slimio()
    recs = [AofRecord(op=OP_SET, key=k, value=v) for k, v in _values(n, 1024)]

    def body():
        wal, env = system.wal, system.env
        for i in range(0, n, 50):
            for r in recs[i:i + 50]:
                wal.stage(r)
            env.run(until=env.process(wal.flush_now()))
        system.stop()
    return body, n, f"{n} stage(1 KiB record), flush_now every 50"


def _aof_encode():
    recs = [AofRecord(op=OP_SET, key=k, value=v) for k, v in _values(4000, 1024)]
    nbytes = sum(len(r.key) + len(r.value) for r in recs)

    def body():
        for r in recs:
            AofCodec.encode(r)
    return body, nbytes, "4000 records of 1 KiB"


def _aof_scan():
    blob = b"".join(AofCodec.encode(AofRecord(op=OP_SET, key=k, value=v))
                    for k, v in _values(4000, 1024))

    def body():
        AofCodec.scan(blob)
    return body, len(blob), "one scan over 4000 records of 1 KiB"


def _rdb_chunk():
    entries = _values(2048, 4096)
    nbytes = sum(len(k) + len(v) for k, v in entries)
    writer = RdbWriter(Compressor())
    writer.header()

    def body():
        for i in range(0, len(entries), 32):
            writer.chunk(entries[i:i + 32])
    return body, nbytes, "2048 entries of 4 KiB in chunks of 32"


def _compress():
    # distinct chunks: Compressor memoizes identical inputs
    chunks = [b"".join(v for _, v in _values(2048, 4096)[i:i + 8])
              for i in range(0, 2048, 8)]
    comp = Compressor()

    def body():
        for c in chunks:
            comp.compress(c)
    return body, sum(len(c) for c in chunks), "256 distinct chunks of 32 KiB"


def _resp_parse():
    wire = b"".join(encode_command(ClientOp("SET", k, v))
                    for k, v in _values(4000, 1024))
    parser = RespParser()

    def body():
        for i in range(0, len(wire), 512):
            parser.feed(wire[i:i + 512])
            while parser.parse()[0]:
                pass
    return body, len(wire), "4000 SET commands of 1 KiB fed in 512 B fragments"


def _store(op: str):
    def make():
        entries = _values(20_000, 1024)
        store = KVStore()
        if op == "get":
            for k, v in entries:
                store.set(k, v)

        def body():
            if op == "set":
                for k, v in entries:
                    store.set(k, v)
            else:
                for k, _ in entries:
                    store.get(k)
        return body, len(entries), "20000 keys, 1 KiB values"
    return make


#: metric -> (factory, how ``work / best_s`` becomes the value). A
#: factory builds fresh objects and returns (body, work, input note).
MICROS: dict[str, tuple[Callable, str]] = {
    "sim.micro.timeout_ns": (_timeout, "ns_per"),
    "sim.micro.resource_handoff_ns": (_resource_handoff, "ns_per"),
    "flash.micro.write_burst_pages_per_s": (_write_burst, "per_s"),
    "flash.micro.nand_program_pages_per_s.b1": (_nand_program(1), "per_s"),
    "flash.micro.nand_program_pages_per_s.b8": (_nand_program(8), "per_s"),
    "flash.micro.nand_program_pages_per_s.b64": (_nand_program(64), "per_s"),
    "flash.micro.l2p_map_ns": (_l2p_map, "ns_per"),
    "persist.micro.aof_encode_mbps": (_aof_encode, "mbps"),
    "persist.micro.aof_scan_mbps": (_aof_scan, "mbps"),
    "persist.micro.rdb_chunk_mbps": (_rdb_chunk, "mbps"),
    "persist.micro.compress_mbps": (_compress, "mbps"),
    "persist.micro.wal_stage_flush_ns": (_wal_stage_flush, "ns_per"),
    "imdb.micro.resp_parse_mbps": (_resp_parse, "mbps"),
    "imdb.micro.store_set_ns": (_store("set"), "ns_per"),
    "imdb.micro.store_get_ns": (_store("get"), "ns_per"),
}

_CONVERT = {
    "ns_per": lambda work, s: s * 1e9 / work,
    "per_s": lambda work, s: work / s,
    "mbps": lambda work, s: work / s / (1024 * 1024),
}


def run_micros(repeats: int = 5) -> dict[str, dict]:
    """Every microbenchmark: ``repeats`` fresh objects each, after one
    discarded warm-up. Value from the best repeat; quartiles beside it."""
    out = {}
    for name, (factory, how) in MICROS.items():
        times, note = [], ""
        for i in range(repeats + 1):
            body, work, note = factory()
            gc.collect()
            t0 = time.process_time()
            body()
            dt = time.process_time() - t0
            if i:
                times.append(dt)
        conv = _CONVERT[how]
        q1, med, q3 = statistics.quantiles(times, n=4)
        out[name] = {
            "value": conv(work, min(times)),
            "median": conv(work, med),
            "quartiles": sorted([conv(work, q1), conv(work, q3)]),
            "repeats": repeats,
            "input": note,
        }
    return out


if __name__ == "__main__":
    print(json.dumps(run_micros(), indent=1))
