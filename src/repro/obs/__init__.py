"""Observability: structured tracing, profiling and bench reporting.

The paper's whole argument is comparative *measurement* — where does
co-simulation time go under each scheme?  This package makes that
visible without perturbing it:

- :mod:`repro.obs.tracer` — an opt-in, ring-buffered, deterministic
  structured-event tracer wired through the SystemC kernel, the ISS,
  all three co-simulation schemes and the reliable transport;
- :mod:`repro.obs.profile` — per-scheme counter aggregation layered
  onto :class:`~repro.cosim.metrics.CosimMetrics`, with derived
  per-timestep rates for cross-scheme comparison;
- :mod:`repro.obs.bench` — a machine-readable benchmark reporter
  writing ``BENCH_<name>.json`` files conforming to the
  ``repro-bench/1`` schema (see ``docs/observability.md``);
- :mod:`repro.obs.scenarios` — small deterministic traced scenarios
  (the router case study at quickstart scale) shared by the golden
  trace tests and the ``repro trace`` / ``repro bench`` CLI commands;
- :mod:`repro.obs.spans` — causal transaction spans reconstructed from
  the correlation ids every cross-boundary event carries (breakpoint
  syncs, driver round trips, interrupt deliveries, transport frames,
  parallel dispatch windows), with Perfetto async-slice export;
- :mod:`repro.obs.hist` — deterministic sim-time latency histograms
  over closed spans, feeding ``latency.*`` BENCH counters;
- :mod:`repro.obs.health` — a rule-based analyzer (stalled spans,
  retransmission storms, quarantines, hold hot spots, latency
  regressions, windowed telemetry rates) with a CI-friendly exit
  code, behind ``repro health``;
- :mod:`repro.obs.metrics` — the telemetry time-series on a 10 us
  simulated-time grid: a deterministic kernel-sink sampler feeding a
  bounded sim-time-indexed ring, with NDJSON and Prometheus text exposition
  (``repro metrics`` / ``repro top``);
- :mod:`repro.obs.stream_bus` — the live subscription bus publishing
  trace/metrics/health events mid-run to NDJSON or callback sinks.

Tracing is off by default and costs one attribute check when disabled:
every instrumented hot path is guarded by ``if tracer.enabled:`` so no
event object or argument dict is ever built for a disabled tracer.
"""

from repro.obs.bench import BenchReporter, BenchRun
from repro.obs.health import (Finding, HealthReport, HealthThresholds,
                              analyze_records, analyze_run,
                              analyze_series)
from repro.obs.hist import (LatencyHistogram, build_histograms,
                            latency_counters, latency_summaries)
from repro.obs.metrics import (MetricsPoint, MetricsSampler,
                               MetricsSeries, prometheus_text,
                               sampled_counters)
from repro.obs.profile import SchemeProfile, compare_profiles
from repro.obs.spans import (Span, build_spans, dump_spans,
                             perfetto_spans, spans_from_tracer)
from repro.obs.stream_bus import (CallbackSink, NdjsonSink, StreamBus,
                                  StreamHealthMonitor, attach_stream,
                                  publish_report)
from repro.obs.tracer import (NULL_TRACER, TraceEvent, Tracer,
                              dump_events, strip_header, trace_header)

__all__ = [
    "BenchReporter",
    "BenchRun",
    "CallbackSink",
    "Finding",
    "HealthReport",
    "HealthThresholds",
    "LatencyHistogram",
    "MetricsPoint",
    "MetricsSampler",
    "MetricsSeries",
    "NULL_TRACER",
    "NdjsonSink",
    "SchemeProfile",
    "Span",
    "StreamBus",
    "StreamHealthMonitor",
    "TraceEvent",
    "Tracer",
    "analyze_records",
    "analyze_run",
    "analyze_series",
    "attach_stream",
    "build_histograms",
    "build_spans",
    "compare_profiles",
    "dump_events",
    "dump_spans",
    "latency_counters",
    "latency_summaries",
    "perfetto_spans",
    "prometheus_text",
    "publish_report",
    "sampled_counters",
    "spans_from_tracer",
    "strip_header",
    "trace_header",
]
