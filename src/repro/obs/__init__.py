"""Observability for the serving stack: metrics, tracing, drift, logging.

The substrate every benchmark and robustness change reports through:

* :mod:`repro.obs.registry`  — dependency-free ``Counter``/``Gauge``/
  ``Histogram`` (log-scale latency buckets) with labels, a bounded
  :class:`~repro.obs.registry.Reservoir` for exact-count percentile
  telemetry, and Prometheus text exposition.
* :mod:`repro.obs.exporter`  — asyncio HTTP endpoint (``/metrics``,
  ``/healthz``, ``/statsz``) running beside the TCP protocol
  (``repro serve --metrics-port``).
* :mod:`repro.obs.tracing`   — sampled ring-buffered per-decision event
  log, drained via the TCP ``TRACE`` verb / ``repro trace-dump``.
* :mod:`repro.obs.spans`     — dependency-free span tracer
  (``perf_counter_ns`` intervals, contextvar track propagation, bounded
  ring, strict no-op when disabled) with Chrome trace-event export,
  drained via the TCP ``SPANS`` verb / ``repro spans-dump``.
* :mod:`repro.obs.ledger`    — :class:`~repro.obs.ledger.WriteLedger`,
  exact per-cause / per-model SSD write provenance plus avoided-write
  (denial) accounting.
* :mod:`repro.obs.drift`     — live windowed admission-verdict quality
  with matured labels, gauges, and a pluggable drift alarm (the
  retrainer's observable trigger).
* :mod:`repro.obs.structlog` — named stdlib loggers + JSON line
  formatting shared with the trace-event dump.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and schemas.
"""

from repro.obs.drift import DriftMonitor
from repro.obs.exporter import MetricsExporter
from repro.obs.ledger import CAUSES, WriteLedger, write_cause
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Reservoir,
    latency_buckets,
)
from repro.obs.spans import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.structlog import (
    JsonLogFormatter,
    configure_logging,
    get_logger,
    json_line,
)
from repro.obs.tracing import EVENT_FIELDS, DecisionTrace

__all__ = [
    "DriftMonitor",
    "MetricsExporter",
    "CAUSES",
    "WriteLedger",
    "write_cause",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Reservoir",
    "latency_buckets",
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
    "json_line",
    "EVENT_FIELDS",
    "DecisionTrace",
]
