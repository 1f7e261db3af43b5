"""repro.obs: zero-dependency tracing, metrics and analyze instrumentation.

Three pieces, importable with no dependency on the rest of ``repro`` (so
every layer — resilience, planner, backends, serve — can reach in without
cycles):

* :mod:`repro.obs.trace` — contextvars-based spans (``Tracer``,
  ``span()``, ring-buffer / JSONL sinks);
* :mod:`repro.obs.metrics` — per-session ``MetricsRegistry`` with
  lock-free per-thread shards (counters, gauges, wall-time histograms);
* :mod:`repro.obs.analyze` — probe-based per-operator instrumentation
  behind ``Query.explain(analyze=True)``.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from .analyze import AnalyzeReport, OpStats, instrument
from .metrics import DISABLED_METRICS, MetricsRegistry, current_metrics, metrics_scope
from .trace import (
    JSONLSink,
    RingBufferSink,
    Span,
    Tracer,
    current_span,
    current_tracer,
    entry_scope,
    env_tracer,
    span,
)

__all__ = [
    "AnalyzeReport",
    "DISABLED_METRICS",
    "JSONLSink",
    "MetricsRegistry",
    "OpStats",
    "RingBufferSink",
    "Span",
    "Tracer",
    "current_metrics",
    "current_span",
    "current_tracer",
    "entry_scope",
    "env_tracer",
    "instrument",
    "metrics_scope",
    "span",
]
