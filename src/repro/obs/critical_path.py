"""Critical-path analysis over the merged cross-rank span DAG.

The question the paper's flat profiles cannot answer — *what sequence of
dependent work determined the wall time of this run (or this
timestep)?* — becomes a longest-dependency-chain walk once spans carry
causal edges:

* **nodes** are leaf spans (spans with no recorded children: proxied
  kernel invocations, MPI operations, checkpoint writes);
* **intra-rank edges** follow program order (a rank is one thread, so
  its leaf spans are totally ordered);
* **cross-rank edges** come from flow points: a matched send/recv pair,
  or a collective whose last-arriving rank unblocked everyone else.

The walk starts at the last-finishing leaf and repeatedly jumps to the
*binding* predecessor — the dependency that finished latest, i.e. the
one that actually gated progress.  Each hop contributes the time slice
it was critical for, so the path's length can never exceed the run's
wall-clock window, and its decomposition (compute / mpi / mpi_wait /
checkpoint / untraced gaps) says where a faster component would
actually shorten the run.  Time a hop's rank sat runnable but
descheduled (queued for the thread backend's run token, stamped on the
span as ``sched_us``) is named in the report's ``sched`` bucket, what
the thread scheduler cost; in the decomposition it counts as compute,
because the token's holder is executing, never waiting: a queued rank's
time on the path is a peer's work.

:func:`crosscheck_records` and :func:`crosscheck_ledger` tie the span
view back to the paper's measurement stack: span durations must agree
with the Mastermind's per-invocation wall times, and span counts with
the MPI ledger's call counts — if they drift, one of the two
instruments is lying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.obs.span import (CAT_COMPUTE, CAT_FAULT, CAT_STEP, FLOW_COLL,
                            FLOW_IN, FLOW_OUT, FlowPoint, Span)

#: breakdown bucket for time not inside any categorized leaf span
UNTRACED = "untraced"


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: ``take_us`` of span were critical."""

    span_id: int
    rank: int
    name: str
    category: str
    take_us: float


@dataclass
class CriticalPathReport:
    """Longest dependency chain over one window (a run or a timestep)."""

    t0_us: float
    t1_us: float
    #: chain segments, latest first (the walk is backwards)
    segments: list[PathSegment] = field(default_factory=list)
    #: time per category along the path (includes gap attribution)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: number of cross-rank hops the chain took
    cross_rank_hops: int = 0
    #: the ``sched`` bucket: how much of the path its ranks sat queued for
    #: the run token while a peer executed.  ``breakdown`` holds it under
    #: compute (as an OS-preempted process rank's kernel span holds its
    #: lost time), so this is an "of which", not another addend
    sched_us: float = 0.0

    @property
    def total_wall_us(self) -> float:
        return max(0.0, self.t1_us - self.t0_us)

    @property
    def path_us(self) -> float:
        return sum(self.breakdown.values())

    def format(self, title: str = "Critical path") -> str:
        from repro.util.tabular import format_table

        rows = [(seg.rank, seg.name, seg.category, f"{seg.take_us:,.1f}")
                for seg in reversed(self.segments) if seg.take_us > 0.0]
        head = (f"{title}: {self.path_us:,.1f} us of {self.total_wall_us:,.1f} us "
                f"wall ({self.cross_rank_hops} cross-rank hop(s))\n"
                + "  breakdown: "
                + ", ".join(f"{k}={v:,.1f}us" for k, v in sorted(self.breakdown.items()))
                + f"\n  sched: {self.sched_us:,.1f}us of compute is time queued "
                  "for the run token")
        return head + "\n" + format_table(
            ["rank", "span", "category", "critical us"], rows)


# ----------------------------------------------------------------- DAG build
def leaf_spans(spans: Iterable[Span]) -> list[Span]:
    """Spans with no recorded children (the schedulable units of work)."""
    spans = list(spans)
    parents = {s.parent_id for s in spans if s.parent_id is not None}
    return [s for s in spans if s.span_id not in parents]


def flow_edges(flows: Iterable[FlowPoint]) -> dict[int, list[int]]:
    """Causal predecessor span ids per span id, derived from flow points.

    p2p: the ``out`` endpoint precedes every ``in`` endpoint of the same
    flow id (duplicates deliver once, but a probe+recv may record two
    sinks; all are causally after the send).  Collectives: the last
    *arriving* participant (max ``t_us``, which flow_collective sets to
    the span's start) precedes every other participant.
    """
    p2p_out: dict[str, int] = {}
    p2p_in: dict[str, list[int]] = {}
    coll: dict[str, list[FlowPoint]] = {}
    for fp in flows:
        if fp.kind == FLOW_OUT:
            p2p_out[fp.flow_id] = fp.span_id
        elif fp.kind == FLOW_IN:
            p2p_in.setdefault(fp.flow_id, []).append(fp.span_id)
        elif fp.kind == FLOW_COLL:
            coll.setdefault(fp.flow_id, []).append(fp)
    preds: dict[int, list[int]] = {}
    for fid, sinks in p2p_in.items():
        src = p2p_out.get(fid)
        if src is None:
            continue  # sender traced with observability off
        for sink in sinks:
            preds.setdefault(sink, []).append(src)
    for fid, points in coll.items():
        if len(points) < 2:
            continue
        last = max(points, key=lambda fp: (fp.t_us, fp.rank))
        for fp in points:
            if fp.span_id != last.span_id:
                preds.setdefault(fp.span_id, []).append(last.span_id)
    return preds


def _clip(span: Span, t0: float, t1: float) -> tuple[float, float] | None:
    lo, hi = max(span.t_start_us, t0), min(span.t_end_us, t1)
    return (lo, hi) if hi > lo or (hi == lo and span.duration_us == 0.0) else None


def _enclosing_category(span: Span, by_id: Mapping[int, Span], t: float) -> str:
    """Category of the innermost ancestor span covering time ``t``."""
    seen = 0
    pid = span.parent_id
    while pid is not None and seen < 64:
        anc = by_id.get(pid)
        if anc is None:
            break
        if anc.t_start_us <= t <= anc.t_end_us:
            return anc.category
        pid = anc.parent_id
        seen += 1
    return UNTRACED


def _segment_breakdown(report: CriticalPathReport, span: Span, take: float) -> None:
    """Attribute one hop's critical time, splitting out the time its rank
    sat descheduled (a peer's work: compute, and the report's sched bucket)."""
    breakdown = report.breakdown
    sched = min(float(span.attrs.get("sched_us", 0.0)), take)
    if sched > 0.0:
        report.sched_us += sched
        breakdown[CAT_COMPUTE] = breakdown.get(CAT_COMPUTE, 0.0) + sched
        take -= sched
    if take > 0.0:
        breakdown[span.category] = breakdown.get(span.category, 0.0) + take


# ------------------------------------------------------------------ the walk
def critical_path(spans: Sequence[Span], flows: Sequence[FlowPoint],
                  window: tuple[float, float] | None = None) -> CriticalPathReport:
    """Longest dependency chain over ``spans`` within ``window``.

    ``window`` defaults to the hull of all spans.  Spans partially
    outside the window are clipped; the chain always ends at the
    last-finishing leaf inside it.
    """
    # Fault marks are instants inside the spans they interrupted, not
    # work: as leaves they would hide their enclosing span from the walk.
    spans = [s for s in spans
             if s.t_end_us >= s.t_start_us and s.category != CAT_FAULT]
    if not spans:
        return CriticalPathReport(0.0, 0.0)
    if window is None:
        window = (min(s.t_start_us for s in spans),
                  max(s.t_end_us for s in spans))
    t0, t1 = window
    by_id = {s.span_id: s for s in spans}
    leaves = [s for s in leaf_spans(spans)
              if s.category != CAT_STEP and _clip(s, t0, t1) is not None]
    report = CriticalPathReport(t0, t1)
    if not leaves:
        return report
    fpreds = flow_edges(flows)

    # Per-rank program order over leaves (one thread per rank => total order).
    by_rank: dict[int, list[Span]] = {}
    for s in sorted(leaves, key=lambda s: (s.t_start_us, s.span_id)):
        by_rank.setdefault(s.rank, []).append(s)
    rank_index = {s.span_id: (s.rank, i)
                  for lst in by_rank.values() for i, s in enumerate(lst)}

    def binding_pred(s: Span) -> Span | None:
        cands: list[Span] = []
        rank, i = rank_index[s.span_id]
        if i > 0:
            cands.append(by_rank[rank][i - 1])
        for pid in fpreds.get(s.span_id, ()):
            p = by_id.get(pid)
            # Only a leaf flow predecessor is a candidate: the chain stays
            # on leaves for well-defined program order.
            if p is not None and p.span_id in rank_index and p is not s:
                cands.append(p)
        if not cands:
            return None
        return max(cands, key=lambda p: (p.t_end_us, p.span_id))

    s = max(leaves, key=lambda sp: (min(sp.t_end_us, t1), sp.span_id))
    cursor = min(s.t_end_us, t1)
    visited: set[int] = set()
    while s is not None and cursor > t0 and len(visited) <= 2 * len(leaves):
        visited.add(s.span_id)
        seg_lo = max(s.t_start_us, t0)
        p = binding_pred(s)
        if p is not None and p.span_id in visited:
            p = None  # clock-race safety: never cycle
        p_end = min(p.t_end_us, t1) if p is not None else None
        if p_end is not None and p_end > seg_lo:
            take = max(0.0, cursor - p_end)
            report.segments.append(PathSegment(
                s.span_id, s.rank, s.name, s.category, take))
            _segment_breakdown(report, s, take)
            if p.rank != s.rank:
                report.cross_rank_hops += 1
            cursor = min(cursor, p_end)
            s = p
            continue
        take = max(0.0, cursor - seg_lo)
        report.segments.append(PathSegment(
            s.span_id, s.rank, s.name, s.category, take))
        _segment_breakdown(report, s, take)
        if p is None:
            # Leading time before the first reachable leaf: attribute to
            # whatever enclosing span covers it, or "untraced".
            if seg_lo > t0:
                cat = _enclosing_category(s, by_id, seg_lo)
                report.breakdown[cat] = report.breakdown.get(cat, 0.0) + (seg_lo - t0)
            break
        gap = seg_lo - p_end
        if gap > 0.0:
            cat = _enclosing_category(s, by_id, p_end + gap / 2.0)
            report.breakdown[cat] = report.breakdown.get(cat, 0.0) + gap
        if p.rank != s.rank:
            report.cross_rank_hops += 1
        cursor = min(cursor, p_end)
        s = p
    return report


def per_step_critical_paths(spans: Sequence[Span], flows: Sequence[FlowPoint]
                            ) -> dict[int, CriticalPathReport]:
    """One critical path per driver timestep.

    Timestep windows come from the driver's ``category="step"`` spans:
    step ``n``'s window is the hull of every rank's step-``n`` span.
    """
    windows: dict[int, list[Span]] = {}
    for s in spans:
        if s.category == CAT_STEP and "step" in s.attrs:
            windows.setdefault(int(s.attrs["step"]), []).append(s)
    out: dict[int, CriticalPathReport] = {}
    for step in sorted(windows):
        group = windows[step]
        w = (min(s.t_start_us for s in group), max(s.t_end_us for s in group))
        out[step] = critical_path(spans, flows, window=w)
    return out


# ------------------------------------------------------------- cross-checks
def crosscheck_records(spans: Sequence[Span],
                       records_by_rank: Sequence[Mapping] ,
                       ) -> dict[str, tuple[float, float, float]]:
    """Span wall time vs Mastermind record wall time, per routine.

    ``records_by_rank[r]`` maps ``(label, method)`` to a
    :class:`~repro.perf.records.MethodRecord`.  Returns
    ``{timer_name: (span_us, record_us, rel_err)}``.  Only meaningful
    with ``sample_every=1`` (sampled-out invocations have records but no
    spans).

    Both sides read one interval: a record's wall is its TAU frame's
    clock interval (``t_end_us - t_start_us``, not its inclusive time),
    and a traced frame *is* its span, so the two totals agree up to
    float summation order.  The modeled MPI cost charged inside a region
    lives separately, in the record's ``mpi_us`` and the span's
    ``virtual_us`` attribute — neither enters this comparison.
    """
    span_us: dict[str, float] = {}
    for s in spans:
        span_us[s.name] = span_us.get(s.name, 0.0) + s.duration_us
    out: dict[str, tuple[float, float, float]] = {}
    rec_us: dict[str, float] = {}
    for records in records_by_rank:
        for rec in records.values():
            rec_us[rec.timer_name] = rec_us.get(rec.timer_name, 0.0) + float(
                rec.wall_series().sum())
    for name, r_us in rec_us.items():
        s_us = span_us.get(name, 0.0)
        denom = max(r_us, 1e-9)
        out[name] = (s_us, r_us, abs(s_us - r_us) / denom)
    return out


def crosscheck_ledger(spans: Sequence[Span], ledgers: Sequence,
                      ) -> dict[str, tuple[int, int]]:
    """Span count vs MPI ledger call count, per traced MPI routine.

    Returns ``{routine: (span_calls, ledger_calls)}`` for every routine
    that appears as a span name; on a fault-free run the two must be
    equal (spans and charges are emitted by the same operations).
    """
    span_calls: dict[str, int] = {}
    for s in spans:
        if s.name.startswith("MPI_"):
            span_calls[s.name] = span_calls.get(s.name, 0) + 1
    ledger_calls: dict[str, int] = {}
    for led in ledgers:
        for routine, st in led.routine_totals().items():
            ledger_calls[routine] = ledger_calls.get(routine, 0) + st.calls
    return {r: (n, ledger_calls.get(r, 0)) for r, n in sorted(span_calls.items())}
