"""Observability: metrics registry + trace-event ring buffer.

Usage::

    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    announces = registry.counter("crawler.announces")
    ok = announces.labels(outcome="ok")  # bind once, reuse on the hot path
    ok.inc()
    registry.histogram("tracker.response_bytes").labels().observe(412)
    with registry.timer("report.build_wall_ms"):
        ...
    print(announces.total(), registry.to_json(indent=2))

Every read and write goes through a handle bound with ``.labels(...)``;
the instruments themselves only bind, total and snapshot.

There is no process-global registry.  A component records into the
registry it is given; one built without a registry creates a fresh
private :class:`MetricsRegistry`, so nothing is shared between runs.
Campaign entry points (:func:`repro.core.collector.run_measurement`,
:meth:`repro.simulation.world.World.build`) pass one registry down to every
component of a run, so same-seed sim snapshots stay byte-identical.
"""

from __future__ import annotations

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)
from repro.observability.tracing import TraceBuffer, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Timer",
    "TraceBuffer",
    "TraceEvent",
    "merge_snapshots",
]
