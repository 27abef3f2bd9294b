"""TAU-analog measurement library (paper Section 4.1).

Provides the four interfaces the paper's TAU component exposes through its
MeasurementPort:

* **timing** — create/name/start/stop/group timers with inclusive and
  exclusive wall-clock accumulation (:class:`Profiler`); ``stop`` hands
  back the stopped :class:`~repro.tau.timer.Frame`, whose interval the
  Mastermind files as one invocation;
* **events** — atomic events tracking min/max/mean/std/count
  (:class:`AtomicEvent`);
* **control** — enable/disable all timers of a group at runtime
  (e.g. every MPI timer via the ``"MPI"`` group);
* **query** — read current cumulative metric values
  (:class:`MeasurementSnapshot`).

The tracing measurement option is a :class:`~repro.obs.span.SpanTracer`
handed to the :class:`Profiler` (``Profiler(tracer=...)``), which keeps
each traced frame itself as a span; it exports through
:mod:`repro.obs.export` like every other interval of the rank.

Hardware metrics come from :mod:`repro.tau.hardware`, a PAPI-like layer
backed by an explicit cache model (see DESIGN.md substitutions).  A
rank's profile is part of its run record (:mod:`repro.obs.record`), which
:func:`~repro.tau.profiler.format_profile` renders as TAU-style text, and
:func:`repro.tau.summary.function_summary` renders the paper's Figure 3
"FUNCTION SUMMARY (mean)" table.
"""

from repro.tau.timer import TimerStats
from repro.tau.events import AtomicEvent, EventRegistry
from repro.tau.hardware import CacheModel, HardwareCounters, AccessPattern
from repro.tau.profiler import Profiler
from repro.tau.query import MeasurementSnapshot
from repro.tau.summary import function_summary, merge_snapshots

__all__ = [
    "TimerStats",
    "AtomicEvent",
    "EventRegistry",
    "CacheModel",
    "HardwareCounters",
    "AccessPattern",
    "Profiler",
    "MeasurementSnapshot",
    "function_summary",
    "merge_snapshots",
]
