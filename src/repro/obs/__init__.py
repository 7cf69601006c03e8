"""``repro.obs`` — the observability subsystem.

Three pillars (see ``docs/internals.md`` § Observability):

1. **Span tracing** (:mod:`repro.obs.trace`): a ``Tracer``/``Span``
   API with a zero-overhead no-op default and a thread-safe recording
   implementation, instrumented through both EBSP engines, the spill
   transport, the worker runtime, and the stores' batched RPCs.
2. **Metrics** (:mod:`repro.obs.metrics`): one registry of counters,
   gauges, and histograms with explicit units.  The engines write a
   job's registry directly; ``SerdeStats`` keeps the stores' stats
   format as a facade over one, and the runtime's worker stats surface
   through it as gauges.
3. **Exporters** (:mod:`repro.obs.export`): Chrome/Perfetto
   trace-event JSON, flat metrics dumps, and the ``inspect trace`` /
   ``inspect metrics`` CLI subcommands built on them.

Tracing is opt-in per job — ``run_job(..., trace=True)`` or
``RIPPLE_TRACE=1`` — and the disabled path stays within measurement
noise (``benchmarks/test_ablation_obs.py`` pins this).
"""

from repro.obs.export import (
    export_tracer,
    lane_tids,
    metrics_dump,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import Counter, Gauge, Histogram, Metric, MetricsRegistry
from repro.obs.trace import (
    DRIVER_LANE,
    NULL_SPAN,
    NULL_TRACER,
    RecordingTracer,
    TraceEvent,
    Tracer,
    activate,
    env_trace_enabled,
    get_tracer,
    resolve_tracer,
)

__all__ = [
    "Tracer",
    "RecordingTracer",
    "TraceEvent",
    "NULL_TRACER",
    "NULL_SPAN",
    "DRIVER_LANE",
    "activate",
    "get_tracer",
    "resolve_tracer",
    "env_trace_enabled",
    "MetricsRegistry",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "to_chrome_trace",
    "export_tracer",
    "write_chrome_trace",
    "validate_chrome_trace",
    "lane_tids",
    "metrics_dump",
    "write_metrics",
]
