"""Operation traces: record, save, replay.

A trace pins down the *exact* request sequence of a run, so a
performance regression can be replayed bit-for-bit against a modified
system, and externally captured workloads (e.g. a production Redis
MONITOR log converted offline) can drive the simulator.

Format (one op per line, binary-safe via hex):

    SET <key-hex> <value-hex>
    GET <key-hex>
    DEL <key-hex>
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Iterable

from repro.imdb import ClientOp
from repro.workloads.runner import closed_loop, server_report

__all__ = ["save_trace", "load_trace", "TraceWorkload"]


def save_trace(ops: Iterable[ClientOp], path: str | Path) -> int:
    """Write ops to ``path``; returns the number written."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for op in ops:
            if op.op == "SET":
                fh.write(f"SET {op.key.hex()} {op.value.hex()}\n")
            elif op.op == "GET":
                fh.write(f"GET {op.key.hex()}\n")
            else:
                fh.write(f"DEL {op.key.hex()}\n")
            n += 1
    return n


def load_trace(path: str | Path) -> list[ClientOp]:
    """Parse a trace file back into ops (strict; raises on bad lines)."""
    ops: list[ClientOp] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "SET" and len(parts) == 3:
                    ops.append(ClientOp("SET", bytes.fromhex(parts[1]),
                                        bytes.fromhex(parts[2])))
                elif parts[0] == "GET" and len(parts) == 2:
                    ops.append(ClientOp("GET", bytes.fromhex(parts[1])))
                elif parts[0] == "DEL" and len(parts) == 2:
                    ops.append(ClientOp("DEL", bytes.fromhex(parts[1])))
                else:
                    raise ValueError("bad structure")
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line {line!r}"
                ) from exc
    return ops


class TraceWorkload:
    """Drive a system from a recorded op list (closed loop)."""

    def __init__(self, ops: list[ClientOp], clients: int = 8):
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if not ops:
            raise ValueError("empty trace")
        self.ops = ops
        self.clients = clients

    @classmethod
    def from_file(cls, path: str | Path, clients: int = 8) -> TraceWorkload:
        return cls(load_trace(path), clients=clients)

    def run(self, system) -> dict[str, float]:
        """Replay; returns a small summary dict."""
        t0, _, _ = closed_loop(system, len(self.ops), self.ops.__getitem__,
                               clients=self.clients)
        rep = server_report(system.metrics, system.server.store, t0,
                            system.env.now)
        return {
            "ops": float(rep.ops),
            "duration": rep.duration,
            "rps": rep.rps,
            "set_p999": rep.set_p999,
            "get_p999": rep.get_p999,
        }
