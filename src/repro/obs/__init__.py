"""Observability: span tracing, metrics and critical-path analysis.

The measurement story of the paper (TAU profiling + Mastermind records)
answers "how long did each component take, per rank".  This package
answers the follow-up questions a distributed run raises: *which* chain
of compute and messages actually bounded the run (critical path), *what
happened between ranks* (causally-linked spans rendered as Perfetto flow
arrows) and *how is the system behaving* in aggregate (typed metrics
with cross-rank merge and Prometheus/JSON exposition).

The :class:`SpanTracer` is the one span store: :class:`FlightRecorder`
is a crash black box per rank that windows onto it (dumped and mergeable
into a post-mortem timeline), and :class:`ObsSidecar` serves live
``/metrics`` / ``/healthz`` / ``/debug/spans`` / ``/live`` over a
running simulation.
"""

from repro.obs.critical_path import (
    CriticalPathReport,
    PathSegment,
    critical_path,
    crosscheck_ledger,
    crosscheck_records,
    flow_edges,
    per_step_critical_paths,
)
from repro.obs.export import (
    ObsDump,
    SpanDropWarning,
    chrome_trace_from_spans,
    collect,
    dump_chrome_trace_spans,
    live_metrics,
    validate_chrome_payload,
    validate_trace_file,
    write_metrics,
    write_trace,
)
from repro.obs.flightrec import (
    FlightRecorder,
    PostMortem,
    dump_flight_recorders,
    merge_flight_recordings,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    merge_registries,
)
from repro.obs.ops import ObsSidecar
from repro.obs.runtime import ObsConfig, RankObs, build_obs
from repro.obs.span import (
    CAT_CHECKPOINT,
    CAT_COMPUTE,
    CAT_FAULT,
    CAT_MPI,
    CAT_MPI_WAIT,
    CAT_STEP,
    FlowPoint,
    Span,
    SpanTracer,
)

__all__ = [
    "CAT_CHECKPOINT",
    "CAT_COMPUTE",
    "CAT_FAULT",
    "CAT_MPI",
    "CAT_MPI_WAIT",
    "CAT_STEP",
    "Counter",
    "CriticalPathReport",
    "FlightRecorder",
    "FlowPoint",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "ObsDump",
    "ObsSidecar",
    "PathSegment",
    "PostMortem",
    "RankObs",
    "Span",
    "SpanDropWarning",
    "SpanTracer",
    "build_obs",
    "chrome_trace_from_spans",
    "collect",
    "critical_path",
    "crosscheck_ledger",
    "crosscheck_records",
    "dump_chrome_trace_spans",
    "dump_flight_recorders",
    "flow_edges",
    "live_metrics",
    "log_buckets",
    "merge_flight_recordings",
    "merge_registries",
    "per_step_critical_paths",
    "validate_chrome_payload",
    "validate_trace_file",
    "write_metrics",
    "write_trace",
]
