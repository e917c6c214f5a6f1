"""``repro.obs``: unified tracing, metrics, and structured logging.

Three pillars, one subsystem:

* :mod:`repro.obs.tracer` -- spans, the one clock: hierarchical intervals
  (run -> stage -> capture hook, warehouse segment reads,
  the phases of a provenance query) kept by a thread's recorder or the
  process tracer, with Chrome trace-event / Perfetto export.  Off by
  default and zero-cost then; the run, stage, capture and serve seconds in
  the metrics are span durations.
* :mod:`repro.obs.metrics` -- the process-wide registry of counters, gauges,
  and fixed-bucket histograms that per-run accounting publishes into, with
  Prometheus text exposition and a JSON dump.
* :mod:`repro.obs.log` -- structured JSON logging keyed by run id.

Two query-side extensions ride on the same pillars:

* :mod:`repro.obs.breakdown` -- per-query explain-analyze phase timings
  (:class:`QueryBreakdown`), a fold over the query's spans;
* :mod:`repro.obs.slowlog` -- the ``REPRO_SLOW_QUERY_MS`` over-budget ring
  buffer behind ``GET /debug/slow`` and ``repro stats --slow``.
"""

from repro.obs.breakdown import PHASES, QueryBreakdown, render_breakdown
from repro.obs.log import RunLogger, enable as enable_logging, get_logger
from repro.obs.metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    ROWS_BUCKETS,
    get_registry,
    set_build_info,
    set_registry,
)
from repro.obs.slowlog import (
    SlowQueryLog,
    get_slow_log,
    observe_query,
    set_slow_log,
    slow_threshold_seconds,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Recorder,
    Span,
    Tracer,
    chrome_trace_events,
    get_tracer,
    recording,
    set_tracer,
    span,
    timed,
    tracing,
)

__all__ = [
    "Span",
    "Recorder",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "span",
    "timed",
    "recording",
    "chrome_trace_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "LATENCY_BUCKETS",
    "ROWS_BUCKETS",
    "BYTES_BUCKETS",
    "set_build_info",
    "RunLogger",
    "get_logger",
    "enable_logging",
    "QueryBreakdown",
    "PHASES",
    "render_breakdown",
    "SlowQueryLog",
    "get_slow_log",
    "set_slow_log",
    "slow_threshold_seconds",
    "observe_query",
]
