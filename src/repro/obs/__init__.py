"""`repro.obs` — the unified telemetry spine.

Three process-wide singletons, all disabled by default so library use
pays one attribute check per instrumentation site:

* :data:`TRACER` — trace spans with explicit context propagation
  through worker threads and pool workers, plus the bounded ring behind
  ``GET /v1/trace/<id>`` (:mod:`repro.obs.trace`);
* :data:`METRICS` — counters / gauges / fixed-bucket histograms with
  Prometheus text exposition
  (:mod:`repro.obs.metrics`);
* :data:`EVENTS` — rate-limited structured JSON-lines event log with
  severity and trace context (:mod:`repro.obs.log`).

``enable_all()`` is what the server and the fleet front door call at
startup; ``repro obs dump`` and ``repro trace <id>`` are the CLI faces.
"""

from repro.obs.log import EVENTS, EventLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TRACER, TraceContext, Tracer, new_id

__all__ = [
    "EVENTS", "EventLog",
    "METRICS", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_BUCKETS",
    "TRACER", "Tracer", "TraceContext", "new_id",
    "enable_all",
]


def enable_all(ring_size=None, log_path=None):
    """Turn the whole telemetry layer on (server and front-door startup)."""
    TRACER.enable(ring_size=ring_size)
    METRICS.enabled = True
    if log_path:
        EVENTS.configure(path=log_path)
