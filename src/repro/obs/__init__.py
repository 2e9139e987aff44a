"""``repro.obs`` — the dependency-free observability spine.

Three pillars, one package:

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms, rendered in Prometheus text
  format by ``GET /metrics`` on every service node.
* :mod:`repro.obs.trace` — span trees with monotonic timings; the
  trace id rides the ``X-Repro-Trace`` header across nodes and the
  tree surfaces as EXPLAIN-ANALYZE output (``--trace`` / ``?trace=1``).
* :mod:`repro.obs.events` — structured JSON event logging (slow
  queries, WAL resets, compactions, replica reseeds/outages, 5xx),
  each event stamped with the active trace id.

Everything is stdlib-only and safe to import from any layer.
"""

from .events import (EVENT_LOGGER_NAME, JsonEventFormatter,
                     configure_event_log, emit_slow_query, log_event)
from .metrics import (BATCH_BUCKETS, LATENCY_BUCKETS, REGISTRY,
                      SIZE_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, enabled,
                      publish_engine_stats, set_enabled)
from .trace import (NULL_SPAN, Span, Trace, current_span,
                    current_trace_id, new_trace_id, render_trace_json,
                    span, start_trace)

__all__ = [
    "BATCH_BUCKETS",
    "Counter",
    "EVENT_LOGGER_NAME",
    "Gauge",
    "Histogram",
    "JsonEventFormatter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_SPAN",
    "REGISTRY",
    "SIZE_BUCKETS",
    "Span",
    "Trace",
    "configure_event_log",
    "current_span",
    "current_trace_id",
    "emit_slow_query",
    "enabled",
    "log_event",
    "new_trace_id",
    "publish_engine_stats",
    "render_trace_json",
    "set_enabled",
    "span",
    "start_trace",
]
