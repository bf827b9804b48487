"""Unified observability: the tool instrumented with its own trace model.

The paper's thesis is that aggregate views of ``rho(r, t)`` make a large
system's behavior visible; :mod:`repro.obs` applies the same thesis to
the reproduction itself.  Three layers:

* a process-wide :class:`MetricsRegistry` (:data:`registry`) of named
  counters, timers and histograms plus the per-component
  :class:`StatGroup` dicts the layout, aggregation and simulation
  engines expose as ``.stats`` — one :meth:`~MetricsRegistry.snapshot`
  sees them all.  Stat groups hold counts only, which repeat exactly
  for a fixed seed;
* scoped :func:`span` timers bracketing the pipeline stages
  (``trace.read``, ``agg.slice``, ``agg.spatial``, ``layout.build``,
  ``layout.traverse``, ``render.svg``, ``sim.step``): every pipeline
  duration is a span, and the server's per-op request latency a
  histogram.  Spans are disabled by default at near-zero cost; switch
  on with ``REPRO_OBS=1`` or :func:`enable`;
* the :class:`Profiler`, which turns a run's spans into a repro-format
  **self-trace** that the tool can aggregate, lay out and render like
  any other trace — ``repro profile run.trace`` then
  ``repro render self.trace``;
* the :mod:`~repro.obs.export` layer, which gets telemetry *out* of the
  process: Chrome trace-event JSON (:func:`write_chrome_trace`, loads
  in Perfetto), a streaming span JSONL sink (:class:`JsonlSpanSink`)
  and flat snapshot dumps (:func:`format_snapshot`); and the
  :mod:`~repro.obs.bench` harness behind ``repro bench``, which
  measures the hot paths with calibrated robust statistics and gates
  regressions via schema-versioned ``BENCH_<suite>.json`` baselines.

Causal-trace analysis lives next door: :mod:`repro.obs.causal` (span
DAG queries, the critical path, emission) and :mod:`repro.obs.latency`
(per-process / per-link latency attribution, propagation paths and the
derived ``caused_latency`` / ``queue_slack`` / ``msg_count`` metrics
behind ``repro latency``).

>>> from repro import obs
>>> with obs.Profiler() as profiler:
...     with obs.span("demo.stage"):
...         pass
>>> [row.name for row in profiler.stage_rows()]
['demo.stage']
"""

# Eager, unlike the names below: importing the ``repro.obs.registry``
# submodule binds it as ``obs.registry`` unless the registry object
# has already taken that name.
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    StatGroup,
    Timer,
    bucket_quantile,
    log_buckets,
    registry,
)
from repro.obs.spans import (
    Span,
    attach_profiler,
    attached_profiler,
    detach_profiler,
    disable,
    enable,
    enabled,
    span,
)

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".profiler": ("PIPELINE_STAGES", "Profiler", "StageStat"),
    ".export": (
        "JsonlSpanSink", "JsonlWriter", "chrome_trace_events",
        "format_snapshot", "read_jsonl_spans", "write_chrome_trace",
        "write_snapshot",
    ),
    ".expo": ("PROM_CONTENT_TYPE", "parse_exposition", "render_prometheus"),
})

__all__ = [
    "Counter",
    "Histogram",
    "JsonlSpanSink",
    "JsonlWriter",
    "MetricsRegistry",
    "PIPELINE_STAGES",
    "PROM_CONTENT_TYPE",
    "Profiler",
    "Span",
    "StageStat",
    "StatGroup",
    "Timer",
    "attach_profiler",
    "attached_profiler",
    "bucket_quantile",
    "chrome_trace_events",
    "detach_profiler",
    "disable",
    "enable",
    "enabled",
    "format_snapshot",
    "log_buckets",
    "parse_exposition",
    "read_jsonl_spans",
    "registry",
    "render_prometheus",
    "span",
    "write_chrome_trace",
    "write_snapshot",
]
