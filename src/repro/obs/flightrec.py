"""Per-rank crash flight recorder and cross-rank post-mortem merger.

Exascale in-situ diagnostics (PAPERS.md) argue the most valuable trace is
the one covering the seconds *before* a failure — exactly the data a
bounded tracer has usually already evicted by the time anything goes
wrong.  A rank's black box is its :class:`~repro.obs.record.RunRecord`
cut to the tracer's newest ``flightrec_depth`` spans (which the tracer's
eviction always keeps), plus the reason it was dumped.  When a crash
fault fires, the deadlock detector raises, or a fatal sanitizer finding
aborts the job, the backend dumps each rank's box to
``out/flightrec/rank<k>.json``; :func:`merge_flight_recordings` then
loads them and reassembles the last-N-steps cross-rank timeline as a
Perfetto-compatible trace for triage.

Timestamps come exclusively from :func:`repro.util.timebase.now_us` —
one monotonic clock per machine, so merged cross-rank (and, on Linux,
cross-process) orderings are valid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.export import (dump_chrome_trace_spans, timeline,
                              validate_trace_file)
from repro.obs.record import load_records, rank_record
from repro.obs.runtime import RankObs
from repro.obs.span import CAT_STEP, Span
from repro.util.atomicio import atomic_write_text

#: merged Perfetto-compatible timeline written by the merger
MERGED_TRACE = "postmortem_trace.json"

#: merged machine-readable summary written next to the trace
MERGED_SUMMARY = "postmortem.json"


def dump_flight_recorders(obs: Sequence[RankObs] | None, reason: str,
                          directory: str | None = None,
                          world: Any = None) -> list[str]:
    """Dump the black box of every rank that keeps one (the crash path).

    Each box is the rank's record (identity and fault events read from
    ``world``) cut to its window, written once: the first cause wins, so a
    cascade of abort-induced failures cannot overwrite the recording of
    the primary fault.  Safe to call with observability off; returns the
    paths.  Backends call this on the failure path *before* raising
    :class:`~repro.mpi.runner.RankFailure`, so the black boxes exist even
    though the exception unwinds the whole launcher.
    """
    paths = []
    for ro in obs or []:
        if not ro.config.flight_recorder:
            continue
        if ro.dumped_to is None:
            box = rank_record(ro, world, depth=ro.config.flightrec_depth)
            box.reason = reason
            ro.dumped_to = box.write(directory or ro.config.flightrec_dir)
        paths.append(ro.dumped_to)
    return paths


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
    """Merge the ``rank*.json`` boxes into one Perfetto-compatible timeline.

    The boxes load in rank order, the steps covered are those of the
    windows' ``timestep`` spans, and spans from all ranks sort onto the
    shared monotonic clock; the merged trace carries spans only (a
    black-box window necessarily truncates flow edges at its boundary,
    and a half-edge would fail Perfetto's flow validation).  The trace is
    validated before the summary is written, so a "timeline exists"
    check in CI really means "loads in ui.perfetto.dev".
    """
    boxes = load_records(directory)
    if not boxes:
        raise FileNotFoundError(
            f"no flight-recorder dumps (rank*.json) under {directory!r}")
    ranks = [b.rank for b in boxes]
    reasons = {b.rank: str(b.reason) for b in boxes}
    spans, _ = timeline(boxes)
    steps = {s.attrs["step"] for s in spans if s.category == CAT_STEP}
    trace_path = os.path.join(directory, MERGED_TRACE)
    dump_chrome_trace_spans(spans, [], trace_path,
                            process_name="flight recorder")
    pm = PostMortem(directory=directory, ranks=ranks, reasons=reasons,
                    spans=spans, steps=sorted(steps), trace_path=trace_path,
                    problems=validate_trace_file(trace_path))
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
