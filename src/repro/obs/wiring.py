"""Attach one request tracer across every layer of a built system.

``attach_tracer`` walks a :class:`~repro.core.engine.BaselineSystem`
or :class:`~repro.core.engine.SlimIOSystem` handle (duck-typed — any
object with the same attribute names works) and plants one
:class:`~repro.obs.trace.RequestTracer` on every component that knows
how to feed it (``rtrace`` attribute), and gives the system's registry
the tracer so registry spans join the traces of the processes that
open them. Tracing is a mode a run selects; the metrics registry is
not — every component is built with one.
"""

from __future__ import annotations

from repro.obs.trace import RequestTracer

__all__ = ["attach_tracer"]

#: system attributes probed for an ``rtrace`` attribute
_COMPONENT_ATTRS = ("server", "wal", "wal_path", "wal_ring", "cache",
                    "block", "fs")


def attach_tracer(system, tracer: RequestTracer | None = None,
                  include_device: bool = True, tenant: str | None = None,
                  **tracer_kw) -> RequestTracer:
    """Wire a request tracer through ``system``; returns the tracer.

    Creates one when none is passed (``tracer_kw`` forwards to
    :class:`~repro.obs.trace.RequestTracer`). ``tenant`` names this
    system on every trace (cluster shard attribution); defaults to the
    server name. Pass ``include_device=False`` for shared-device
    deployments and wire the device's FTL once, separately.
    """
    if tracer is None:
        tracer = RequestTracer(system.env, **tracer_kw)
    system.rtrace = tracer
    obs = getattr(system, "obs", None)
    if obs is not None:
        getattr(obs, "base", obs).tracer = tracer
    for attr in _COMPONENT_ATTRS:
        comp = getattr(system, attr, None)
        if comp is not None and hasattr(comp, "rtrace"):
            comp.rtrace = tracer
    server = getattr(system, "server", None)
    if server is not None:
        server.trace_tenant = tenant if tenant is not None else server.name
    device = getattr(system, "device", None)
    if include_device and device is not None:
        device.ftl.rtrace = tracer
    for ring in getattr(system, "_snap_rings", {}).values():
        ring.rtrace = tracer
    return tracer
