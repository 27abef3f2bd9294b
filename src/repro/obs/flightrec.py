"""Per-rank crash flight recorder and cross-rank post-mortem merger.

Exascale in-situ diagnostics (PAPERS.md) argue the most valuable trace is
the one covering the seconds *before* a failure — exactly the data a
bounded tracer has usually already evicted by the time anything goes
wrong.  The :class:`FlightRecorder` is the black box for that moment: a
window on the rank's own :class:`~repro.obs.span.SpanTracer` (its newest
``depth`` closed spans, which the tracer's eviction always keeps) plus
one small ring of per-step counter deltas; a dump adds the rank's MPI
ledger rows.  When a crash fault fires, the deadlock detector raises, or
a fatal sanitizer finding aborts the job, the backend dumps each rank's
box to ``out/flightrec/rank<k>.json``; :func:`merge_flight_recordings` then
reassembles the last-N-steps cross-rank timeline as a Perfetto-compatible
trace for triage.

Timestamps come exclusively from :func:`repro.util.timebase.now_us` —
one monotonic clock per machine, so merged cross-rank (and, on Linux,
cross-process) orderings are valid.
"""

from __future__ import annotations

import glob
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.export import (dump_chrome_trace_spans, rank_counters,
                              validate_chrome_payload)
from repro.obs.span import Span
from repro.util.atomicio import atomic_write_text
from repro.util.timebase import now_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.runtime import RankObs

#: file-name pattern of one rank's dump inside the flightrec directory
RANK_FILE = "rank{rank}.json"

#: merged Perfetto-compatible timeline written by the merger
MERGED_TRACE = "postmortem_trace.json"

#: merged machine-readable summary written next to the trace
MERGED_SUMMARY = "postmortem.json"


class FlightRecorder:
    """One rank's black box: a window on its tracer plus one ring.

    Keeps no spans of its own: :meth:`dump` reads the newest ``depth``
    closed spans from the rank's tracer, and the rank's ledger rows.  It
    rings per-step counter deltas (:meth:`capture_step`, called by
    :meth:`~repro.obs.runtime.RankObs.step` as each step ends), taken
    from the counter half of the rank's one metrics view
    (:func:`~repro.obs.export.rank_counters`).  It never references the
    tracer or the world, so a worker process can pickle it home inside
    its :class:`~repro.obs.runtime.RankObs`.
    """

    __slots__ = ("rank", "depth", "directory", "step_deltas",
                 "_counter_base", "dumped_to")

    def __init__(self, rank: int, *, depth: int = 512,
                 directory: str = os.path.join("out", "flightrec")) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.rank = int(rank)
        self.depth = int(depth)
        self.directory = directory
        self.step_deltas: deque[dict[str, Any]] = deque(maxlen=depth)
        self._counter_base: dict[str, float] = {}
        #: path of the dump file once written (dump-once guard: the first
        #: cause wins; a cascade of abort-induced failures must not
        #: overwrite the recording of the primary fault)
        self.dumped_to: str | None = None

    # ------------------------------------------------------------- feeds
    def capture_step(self, ro: "RankObs", step: int, span: Span) -> None:
        """Counter deltas over the step whose (closed) span is ``span``."""
        totals: dict[str, float] = {}
        for name, lk, inst in rank_counters(ro).series():
            if type(inst).__name__ != "Counter":
                continue
            key = name + json.dumps(dict(lk), sort_keys=True)
            totals[key] = totals.get(key, 0.0) + inst.value
        deltas = {k: v - self._counter_base.get(k, 0.0)
                  for k, v in totals.items()
                  if v != self._counter_base.get(k, 0.0)}
        self._counter_base = totals
        self.step_deltas.append({
            "step": step,
            "t_end_us": span.t_end_us,
            "duration_us": span.duration_us,
            "counter_deltas": deltas,
        })

    # ------------------------------------------------------------- dumps
    def dump(self, ro: "RankObs", reason: str,
             directory: str | None = None) -> str:
        """Write the tracer window, the ledger rows and the step ring
        (first cause wins; idempotent)."""
        if self.dumped_to is not None:
            return self.dumped_to
        outdir = directory or self.directory
        os.makedirs(outdir, exist_ok=True)
        rows = ro.ledger.routine_totals() if ro.ledger is not None else {}
        payload = {
            "rank": self.rank,
            "depth": self.depth,
            "spans": [s.to_dict() for s in ro.tracer.recent_spans(self.depth)],
            "ledger": {r: {"calls": st.calls, "total_us": st.total_us}
                       for r, st in rows.items()},
            "step_deltas": list(self.step_deltas),
            "reason": reason,
            "t_dump_us": now_us(),
        }
        path = os.path.join(outdir, RANK_FILE.format(rank=self.rank))
        atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
        self.dumped_to = path
        return path


def dump_flight_recorders(obs: list | None, reason: str,
                          directory: str | None = None) -> list[str]:
    """Dump the recorder of every rank that has one (the crash path).

    Safe to call with observability off or recorders absent; returns the
    paths written.  Backends call this on the failure path *before*
    raising :class:`~repro.mpi.runner.RankFailure`, so the black boxes
    exist even though the exception unwinds the whole launcher.
    """
    return [ro.recorder.dump(ro, reason, directory)
            for ro in obs or [] if ro.recorder is not None]


# ------------------------------------------------------------------ merge
@dataclass
class PostMortem:
    """Cross-rank reconstruction of the moments before a failure."""

    directory: str
    ranks: list[int]
    reasons: dict[int, str]
    spans: list[Span]
    steps: list[int] = field(default_factory=list)
    trace_path: str = ""
    summary_path: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def window_us(self) -> float:
        if not self.spans:
            return 0.0
        return (max(s.t_end_us for s in self.spans)
                - min(s.t_start_us for s in self.spans))

    def format(self) -> str:
        lines = [f"post-mortem over ranks {self.ranks} "
                 f"({len(self.spans)} spans, {self.window_us / 1e3:.2f} ms)"]
        for r in self.ranks:
            lines.append(f"  rank {r}: {self.reasons.get(r, '?')}")
        if self.steps:
            lines.append(f"  steps covered: {self.steps[0]}..{self.steps[-1]}")
        lines.append(f"  timeline: {self.trace_path}"
                     + (" [VALID]" if not self.problems else
                        f" [{len(self.problems)} validation problems]"))
        return "\n".join(lines)


def merge_flight_recordings(directory: str = os.path.join("out", "flightrec"),
                            ) -> PostMortem:
    """Merge ``rank*.json`` dumps into one Perfetto-compatible timeline.

    Spans from all ranks sort onto the shared monotonic clock; the merged
    trace carries spans only (a black-box window necessarily truncates
    flow edges at its boundary, and a half-edge would fail Perfetto's
    flow validation).  The trace is validated before the summary is
    written, so a "timeline exists" check in CI really means "loads in
    ui.perfetto.dev".
    """
    files = sorted(glob.glob(os.path.join(directory, "rank*.json")))
    if not files:
        raise FileNotFoundError(
            f"no flight-recorder dumps (rank*.json) under {directory!r}")
    ranks: list[int] = []
    reasons: dict[int, str] = {}
    spans: list[Span] = []
    steps: set[int] = set()
    for path in files:
        with open(path) as fh:
            payload = json.load(fh)
        rank = int(payload["rank"])
        ranks.append(rank)
        reasons[rank] = str(payload.get("reason", "?"))
        for d in payload.get("spans", []):
            spans.append(Span.from_dict(d))
        for sd in payload.get("step_deltas", []):
            if sd.get("step") is not None:
                steps.add(int(sd["step"]))
    spans.sort(key=lambda s: (s.t_start_us, s.rank, s.span_id))
    trace_path = os.path.join(directory, MERGED_TRACE)
    dump_chrome_trace_spans(spans, [], trace_path,
                            process_name="flight recorder")
    with open(trace_path) as fh:
        problems = validate_chrome_payload(json.load(fh))
    pm = PostMortem(directory=directory, ranks=ranks, reasons=reasons,
                    spans=spans, steps=sorted(steps),
                    trace_path=trace_path, problems=list(problems))
    summary = {
        "ranks": ranks,
        "reasons": {str(r): reasons[r] for r in ranks},
        "n_spans": len(spans),
        "window_us": pm.window_us,
        "steps": pm.steps,
        "trace": os.path.basename(trace_path),
        "valid": not pm.problems,
        "problems": pm.problems,
    }
    pm.summary_path = os.path.join(directory, MERGED_SUMMARY)
    atomic_write_text(pm.summary_path,
                      json.dumps(summary, indent=1, sort_keys=True))
    return pm
