"""The in-memory database (Redis substitute).

* :mod:`repro.imdb.store` — the keyspace: a real dict of byte values
  with memory accounting and a page map for the CoW model.
* :mod:`repro.imdb.memory` — fork()/copy-on-write at page granularity:
  the source of the paper's snapshot-period memory doubling and the
  query-throughput dip that passthru alone cannot remove (Tables 1, 3).
* :mod:`repro.imdb.server` — the single-threaded query loop, the WAL
  hook, snapshot orchestration (WAL-triggered and on-demand), and all
  client-visible metrics (RPS timeline, SET/GET latency percentiles).
"""

from repro.imdb import resp
from repro.imdb.memory import CowMemory
from repro.imdb.store import KVStore
from repro.imdb.server import ClientOp, ServerConfig, ServerMetrics, Server

__all__ = [
    "KVStore",
    "CowMemory",
    "Server",
    "ServerConfig",
    "ServerMetrics",
    "ClientOp",
    "resp",
]
