"""Discrete-event simulation engine.

A small, dependency-free simpy-style kernel: an :class:`Environment`
advances a virtual clock over a heap of scheduled events, and
generator-based :class:`Process` objects cooperate by yielding events
(timeouts, locks, queues, other processes).

Everything in the SlimIO reproduction that has a *duration* — NAND page
programs, syscalls, journal commits, fork page copies — is expressed as
events on this engine, so all performance results are deterministic and
machine-independent.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Lock, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Lock",
    "Resource",
    "Store",
]
