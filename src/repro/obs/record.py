"""One rank's run record: what every per-rank store holds, in one shape.

A :class:`RunRecord` holds one rank's tracer spans and flows, MPI ledger
rows, Mastermind records, fault events, own metrics and TAU profile,
with the run's identity.  :meth:`RunRecord.write` is its one writer and
:func:`load_records` its one loader.  Every output is a view of records:
the trace and metrics (:mod:`repro.obs.export`), TAU's text profile
(:func:`repro.tau.profiler.format_profile`), the Mastermind's record
files (:func:`repro.perf.records.record_files`) and the flight
recorder's black box, a record cut to its window
(:mod:`repro.obs.flightrec`).  Records are built after the ranks ran
(:func:`collect`) or on the crash path, never inside a run.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.runtime import RankObs
from repro.obs.span import FlowPoint, Span
from repro.util.atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.tau.timer import TimerStats

#: file name of one rank's record inside a record directory
RANK_FILE = "rank{rank}.json"


class SpanDropWarning(Warning):
    """The bounded tracer buffer overflowed and history was lost: warned
    once per process by :func:`collect` (:func:`reset_drop_warning`
    re-arms it), in a category of its own, since CI escalates
    RuntimeWarning to an error."""


@dataclass
class RunRecord:
    """Everything one rank of a run left behind."""

    rank: int
    #: the run's identity (None for a record of bare rank states)
    nranks: int | None
    seed: int | None
    backend: str | None
    #: the tracer's closed spans, as plain spans, and its flow points
    spans: list[Span]
    flows: list[FlowPoint]
    #: the tracer's :meth:`~repro.obs.span.SpanTracer.overhead_report`
    overhead: dict[str, float]
    #: the MPI ledger's rows: ``routine -> {"calls": n, "total_us": t}``
    ledger: dict[str, dict[str, float]]
    #: the rank's own registry (:meth:`MetricsRegistry.state`)
    metrics: dict[str, Any]
    #: the Mastermind's ``records_state()`` (empty without one)
    records: list[dict[str, Any]] = field(default_factory=list)
    #: the fault injector's ``(name, value)`` events on this rank
    faults: list[tuple[str, float]] = field(default_factory=list)
    #: TAU's timers (its ``MPI`` rows are the ledger's), atomic-event
    #: summaries and hardware counters: filled from a ScmdResult only
    timers: dict[str, TimerStats] = field(default_factory=dict)
    events: dict[str, dict[str, float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: why a flight-recorder window was dumped (None for a whole run)
    reason: str | None = None

    def write(self, directory: str) -> str:
        """Atomically write the record as ``directory/rank<k>.json``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, RANK_FILE.format(rank=self.rank))
        return atomic_write_text(path, json.dumps(
            dataclasses.asdict(self), indent=1, sort_keys=True))


def load_records(directory: str) -> list[RunRecord]:
    """Every record written under ``directory``, in rank order."""
    from repro.tau.timer import TimerStats  # repro.tau imports repro.obs

    records = []
    for path in glob.glob(os.path.join(directory, RANK_FILE.format(rank="*"))):
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        d["spans"] = [Span(**s) for s in d["spans"]]
        d["flows"] = [FlowPoint(*f) for f in d["flows"]]
        d["faults"] = [tuple(e) for e in d["faults"]]
        d["timers"] = {n: TimerStats(**t) for n, t in d["timers"].items()}
        records.append(RunRecord(**d))
    return sorted(records, key=lambda r: r.rank)


def rank_record(ro: RankObs, world: Any = None,
                depth: int | None = None) -> RunRecord:
    """One rank's record from its live state, its identity and fault
    events read from ``world`` when one is given.

    It keeps every closed span or, with ``depth``, the newest ``depth``
    spans and the flow points anchored on them.
    """
    tracer = ro.tracer
    if depth is None:
        spans, flows = tracer.spans(), tracer.flows()
    else:
        spans = tracer.recent_spans(depth)
        kept = {s.span_id for s in spans}
        flows = [f for f in tracer.flows() if f.span_id in kept] if kept else []
    rows = ro.ledger.routine_totals() if ro.ledger is not None else {}
    injector = getattr(world, "injector", None)
    return RunRecord(
        rank=ro.rank, nranks=getattr(world, "nranks", None),
        seed=getattr(world, "seed", None),
        backend=getattr(world, "backend", None),
        # Copies: a TAU frame sheds its timer state, and the record does
        # not change with the tracer.
        spans=[Span(**s.to_dict()) for s in spans], flows=flows,
        overhead=tracer.overhead_report(),
        ledger={r: {"calls": st.calls, "total_us": st.total_us}
                for r, st in rows.items()},
        metrics=ro.metrics.state(),
        records=(ro.mastermind.records_state()
                 if ro.mastermind is not None else []),
        faults=list(injector.events[ro.rank]) if injector is not None else [])


#: process-level once-per-run latch for the drop alert
_drop_warned = False


def reset_drop_warning() -> None:
    """Re-arm the once-per-run span-drop alert (tests and long daemons)."""
    global _drop_warned
    _drop_warned = False


def collect(source: Any) -> list[RunRecord]:
    """Every rank's record of a finished run: a ScmdResult (which also
    fills the TAU fields), a world or a plain RankObs sequence.

    Warns (once per run, :class:`SpanDropWarning`) when any rank's
    bounded buffer dropped history — truncation must be loud, not a
    field the caller may forget to check.
    """
    global _drop_warned
    world = getattr(source, "world", source)
    obs = getattr(world, "obs", world)
    if obs is None:
        raise ValueError(
            "run has no observability state; pass observe=ObsConfig() when "
            "launching it")
    records = [rank_record(ro, world) for ro in obs]
    if hasattr(source, "timer_snapshots"):
        for rec, timers, events, counters in zip(
                records, source.timer_snapshots, source.event_summaries,
                source.counter_values):
            rec.timers = {n: t.copy() for n, t in timers.items()}
            rec.events = {n: dict(s) for n, s in events.items()}
            rec.counters = dict(counters)
    dropped = {r.rank: int(r.overhead["dropped"])
               for r in records if r.overhead["dropped"]}
    if dropped and not _drop_warned:
        _drop_warned = True
        warnings.warn(
            f"span tracer dropped {sum(dropped.values())} span(s) "
            f"(by rank: {dict(sorted(dropped.items()))}); trace history "
            f"is truncated — raise ObsConfig.max_spans or "
            f"ObsConfig.sample_every", SpanDropWarning, stacklevel=2)
    return records
