"""Observability: span tracing, metrics and critical-path analysis.

The measurement story of the paper (TAU profiling + Mastermind records)
answers "how long did each component take, per rank".  This package
answers the follow-up questions a distributed run raises: *which* chain
of compute and messages actually bounded the run (critical path), *what
happened between ranks* (causally-linked spans rendered as Perfetto flow
arrows) and *how is the system behaving* in aggregate (typed metrics
with cross-rank merge and Prometheus/JSON exposition).

The :class:`SpanTracer` is the one span store.  A finished run leaves
one :class:`RunRecord` per rank (:func:`collect`, written by
:meth:`RunRecord.write` and read back by :func:`load_records`), and every
output is a view of records: the trace, the metrics, and the crash black
box, a record cut to the tracer's window (dumped and mergeable into a
post-mortem timeline).  :class:`ObsSidecar` serves live ``/metrics`` /
``/healthz`` / ``/debug/spans`` / ``/live`` over a running simulation.
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
    chrome_trace_from_spans,
    dump_chrome_trace_spans,
    live_metrics,
    merged_metrics,
    timeline,
    validate_chrome_payload,
    validate_trace_file,
    write_metrics,
    write_trace,
)
from repro.obs.flightrec import (
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
from repro.obs.record import RunRecord, SpanDropWarning, collect, load_records
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
    "FlowPoint",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "ObsSidecar",
    "PathSegment",
    "PostMortem",
    "RankObs",
    "RunRecord",
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
    "load_records",
    "log_buckets",
    "merge_flight_recordings",
    "merge_registries",
    "merged_metrics",
    "per_step_critical_paths",
    "timeline",
    "validate_chrome_payload",
    "validate_trace_file",
    "write_metrics",
    "write_trace",
]
