"""repro.obs — unified telemetry over the instrumented pipeline stages.

One process-wide :class:`MetricsRegistry` (counters / gauges /
fixed-bucket histograms, all labelled and lock-protected), one
append-only :class:`EventLog` of typed run events, and exporters for
the Prometheus text format and canonical JSON snapshots.

Telemetry is opt-in with a zero-cost disabled path: instrumentation
sites check ``active_registry()`` / ``active_events()`` for ``None``
— the same single-branch pattern as ``repro.exec.graph.maybe_stage`` —
so the engine's byte-parity and perf gates hold with telemetry off.

Typical scoped use (what ``repro-engine sweep --telemetry DIR`` does)::

    from repro.obs import telemetry_session, write_telemetry

    with telemetry_session() as (registry, events):
        runner.run(specs)
    write_telemetry("telemetry/", registry, events)
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .events import (EVENT_KINDS, EventLog, RunEvent, active_events,
                     event_scope, set_events)
from .export import (format_metrics, load_snapshot, publish_stage_trace,
                     render_json, render_prometheus, write_telemetry)
from .registry import (DEFAULT_BUCKETS, TELEMETRY_ENV, Counter, Gauge,
                       Histogram, MetricsRegistry, active_registry,
                       set_registry, telemetry, telemetry_enabled)

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "RunEvent",
    "active_events",
    "event_scope",
    "set_events",
    "format_metrics",
    "load_snapshot",
    "publish_stage_trace",
    "render_json",
    "render_prometheus",
    "write_telemetry",
    "DEFAULT_BUCKETS",
    "TELEMETRY_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "set_registry",
    "telemetry",
    "telemetry_enabled",
    "telemetry_session",
]


@contextmanager
def telemetry_session(
    registry: MetricsRegistry | None = None,
    events: EventLog | None = None,
) -> Iterator[tuple[MetricsRegistry, EventLog]]:
    """Activate a registry and an event log together, scoped."""
    with telemetry(registry) as reg, event_scope(events) as log:
        yield reg, log
