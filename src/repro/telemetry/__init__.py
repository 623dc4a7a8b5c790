"""Unified telemetry: metrics registry, structured tracing, timeline export.

The observability substrate of the compiler and the serving system; it is
also the only clock compile time is read from (``pass.<name>`` /
``mapper.map`` / ``shard.*`` spans and the ``repro_pass_seconds``
histogram):

* :mod:`repro.telemetry.registry` — process-global counters / gauges /
  histograms with JSON-snapshot and Prometheus-text exporters, plus the
  shared :func:`percentile` helper and the :class:`CounterSet` base the
  per-component stats objects are built on.
* :mod:`repro.telemetry.tracing` — :class:`Span` trees propagated across
  the supervised pool's thread/process workers via a picklable
  :class:`TraceContext`, exported as Chrome trace-event JSON
  (Perfetto-loadable) by :func:`chrome_trace_events`.

Telemetry observes; it never decides.  No instrument value feeds back into
routing, so op streams are byte-identical with telemetry enabled or
disabled (the golden and differential suites run with it enabled by
default).
"""

from .registry import (
    REGISTRY,
    Counter,
    CounterSet,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    validate_prometheus_text,
)
from .tracing import (
    TRACER,
    Span,
    TraceContext,
    Tracer,
    activate,
    chrome_trace_events,
    current_context,
    record_instant,
    span,
    span_tree,
    start_trace,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "CounterSet",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "validate_prometheus_text",
    "TRACER",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "chrome_trace_events",
    "current_context",
    "record_instant",
    "span",
    "span_tree",
    "start_trace",
]
