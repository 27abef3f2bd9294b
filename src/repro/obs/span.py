"""Distributed span tracing: nested spans with causal cross-rank links.

This is the repo's one interval store: per rank, one :class:`SpanTracer`
holds every interval and mark.  A traced TAU frame *is* its span (paper
Section 4.1's tracing option), the MPI layer's operations are spans and
the fault injector's events are instants in :data:`CAT_FAULT`.  A flat
ENTER/EXIT stream would answer "what ran when on rank r" but not "what
*unblocked* what": a send on rank 0 and the receive it satisfies on rank 3
would be unrelated records.  Hence the span model (ScALPEL-style always-on
monitoring over Cactus-style hierarchical timer trees):

* a :class:`Span` is a named interval with a unique id, a parent id (the
  enclosing span on the same rank) and a category used by the
  critical-path analyzer (compute / mpi / mpi_wait / checkpoint / ...);
* a :class:`FlowPoint` is one endpoint of a causal cross-rank edge —
  a matched send/recv pair shares a flow id (the envelope's send sequence
  number), collective participants share a ``c:<context>:<seq>`` id;
* the :class:`SpanTracer` opens (:meth:`SpanTracer.open` names a span
  its caller stamped) and closes spans per rank, records flow
  points, samples 1-in-N invocations when asked to, bounds its buffer
  (``dropped_count`` says how much history was lost) and measures its own
  cost (``self_overhead_us``) so a full case-study run can report the
  tracing tax it paid.

All timestamps are wall-clock microseconds from
:func:`repro.util.timebase.now_us`, which is one monotonic clock shared
by every rank thread of the process — cross-rank comparisons are valid.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from repro.util.timebase import now_us

# Span categories consumed by the critical-path analyzer.
CAT_COMPUTE = "compute"
CAT_MPI = "mpi"          # cheap posting ops (send/isend/irecv/iprobe)
CAT_MPI_WAIT = "mpi_wait"  # blocking ops (recv/wait*/collectives)
CAT_CHECKPOINT = "checkpoint"
CAT_STEP = "step"
CAT_OTHER = "other"
CAT_FAULT = "fault"  # fault-injector marks (instants; not work)

#: flow-point kinds
FLOW_OUT = "out"    # source endpoint of a p2p edge (the send span)
FLOW_IN = "in"      # sink endpoint of a p2p edge (the receive span)
FLOW_COLL = "coll"  # one participant of a collective

#: ``span_id`` of a span no tracer kept (not yet opened, or a frame that
#: was untraced, suppressed or sampled out)
UNKEPT = -1

#: span-id space per rank (rank << _RANK_SHIFT | local counter): unique
#: across ranks and deterministic per rank regardless of interleaving.
_RANK_SHIFT = 40


@dataclass(slots=True)
class Span:
    """One traced interval on one rank."""

    span_id: int
    parent_id: int | None
    rank: int
    name: str
    category: str
    t_start_us: float
    t_end_us: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return max(0.0, self.t_end_us - self.t_start_us)

    def to_dict(self) -> dict[str, Any]:
        """The span's fields, attrs copied (``Span(**d)`` rebuilds it)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "rank": self.rank,
            "name": self.name,
            "category": self.category,
            "t_start_us": self.t_start_us,
            "t_end_us": self.t_end_us,
            "attrs": dict(self.attrs),
        }


class FlowPoint(NamedTuple):
    """One endpoint of a causal edge between spans (possibly cross-rank)."""

    flow_id: str
    kind: str  # FLOW_OUT / FLOW_IN / FLOW_COLL
    rank: int
    span_id: int
    t_us: float


class SpanTracer:
    """Per-rank span recorder with sampling, bounding and self-accounting.

    ``sample_every=N`` keeps 1-in-N of the spans opened with
    ``sampled=True`` (per span name, first occurrence always kept, so
    every routine appears at least once).  Spans opened with
    ``sampled=False`` — the MPI ops — are always recorded, because a
    sampled-out send would orphan the receive edge on another rank.

    The buffer is bounded — a tracer must never grow without limit inside
    a long simulation: overflow drops the oldest half of the *closed*
    spans together with the flow points anchored on them, and
    ``dropped_count`` says so; exporters must surface it loudly.

    Self-accounting: every ``_OVERHEAD_STRIDE``-th begin/end measures its
    own duration with two extra clock reads and scales by the stride, so
    ``self_overhead_us`` estimates the total tracing tax without paying
    two clock reads on every operation.
    """

    _OVERHEAD_STRIDE = 16

    def __init__(self, rank: int = 0, max_spans: int = 200_000,
                 sample_every: int = 1,
                 clock: Callable[[], float] = now_us) -> None:
        if max_spans < 2:
            raise ValueError(f"max_spans must be >= 2, got {max_spans}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.rank = int(rank)
        self.max_spans = int(max_spans)
        self.sample_every = int(sample_every)
        self._clock = clock
        self._next_local = 0
        self._spans: list[Span] = []          # closed spans
        self._open: list[Span] = []           # stack of open spans
        self._flows: list[FlowPoint] = []
        self._sample_counters: dict[str, int] = {}
        self.dropped_count = 0
        self.sampled_out = 0
        self.self_overhead_us = 0.0
        self._ops = 0

    @property
    def ops(self) -> int:
        """Begin/end operations performed."""
        return self._ops

    # ---------------------------------------------------------- identity
    def _new_id(self) -> int:
        sid = (self.rank << _RANK_SHIFT) | self._next_local
        self._next_local += 1
        return sid

    def current(self) -> Span | None:
        """The innermost open span (None outside any span)."""
        return self._open[-1] if self._open else None

    # ------------------------------------------------------------- spans
    def open(self, span: Span, *, sampled: bool = False) -> Span | None:
        """Name (id, parent) and push a span the caller built and stamps;
        returns None when ``sampled`` and the 1-in-N rule drops it."""
        self._ops += 1
        t_probe = self._clock() if self._ops % self._OVERHEAD_STRIDE == 0 else None
        if sampled and self.sample_every > 1:
            k = self._sample_counters.get(span.name, 0)
            self._sample_counters[span.name] = k + 1
            if k % self.sample_every != 0:
                self.sampled_out += 1
                if t_probe is not None:
                    self.self_overhead_us += (
                        (self._clock() - t_probe) * self._OVERHEAD_STRIDE)
                return None
        span.parent_id = self._open[-1].span_id if self._open else None
        span.span_id = self._new_id()
        self._open.append(span)
        if t_probe is not None:
            self.self_overhead_us += (self._clock() - t_probe) * self._OVERHEAD_STRIDE
        return span

    def close(self, span: Span) -> None:
        """Pop and keep an opened span; the caller stamped its end."""
        self._ops += 1
        t_probe = self._clock() if self._ops % self._OVERHEAD_STRIDE == 0 else None
        # The span model permits out-of-order closes only for the innermost
        # stack discipline the profiler already enforces; tolerate a missing
        # frame (e.g. the tracer was swapped mid-run) rather than corrupting
        # the stack.
        if self._open and self._open[-1] is span:
            self._open.pop()
        elif span in self._open:  # pragma: no cover - defensive
            self._open.remove(span)
        self._append(span)
        if t_probe is not None:
            self.self_overhead_us += (self._clock() - t_probe) * self._OVERHEAD_STRIDE

    def start(self, name: str, category: str = CAT_OTHER, *,
              sampled: bool = False, **attrs: Any) -> Span | None:
        """Open a span stamped now (None when sampled out)."""
        return self.open(Span(UNKEPT, None, self.rank, name, category,
                              self._clock(), 0.0, attrs), sampled=sampled)

    def end(self, span: Span | None) -> None:
        """Stamp and close a span from :meth:`start` (None: no-op)."""
        if span is not None:
            span.t_end_us = self._clock()
            self.close(span)

    def _append(self, span: Span) -> None:
        # Eviction keeps the newest max_spans // 2 spans: the flight
        # recorder's window (ObsConfig caps its depth there) never loses
        # history the tracer still had a moment before.
        if len(self._spans) >= self.max_spans:
            keep = self.max_spans // 2
            evicted = {s.span_id for s in self._spans[:-keep]}
            self.dropped_count += len(evicted)
            self._spans = self._spans[-keep:]
            self._flows = [f for f in self._flows if f.span_id not in evicted]
        self._spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, category: str = CAT_OTHER, *,
             sampled: bool = False, **attrs: Any) -> Iterator[Span | None]:
        """Context manager bracketing a region with start/end."""
        sp = self.start(name, category, sampled=sampled, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def instant(self, name: str, category: str = CAT_OTHER, **attrs: Any) -> Span:
        """Record a zero-duration marker span (always kept)."""
        t = self._clock()
        span = Span(
            span_id=self._new_id(),
            parent_id=self._open[-1].span_id if self._open else None,
            rank=self.rank, name=name, category=category,
            t_start_us=t, t_end_us=t, attrs=attrs,
        )
        self._append(span)
        return span

    # ------------------------------------------------------------- flows
    def flow_out(self, flow_id: str, span: Span | None) -> None:
        """Mark ``span`` as the source of causal edge ``flow_id``."""
        if span is None:
            span = self.instant("flow_out", CAT_MPI)
        self._flows.append(FlowPoint(str(flow_id), FLOW_OUT, self.rank,
                                     span.span_id, self._clock()))

    def flow_in(self, flow_id: str, span: Span | None) -> None:
        """Mark ``span`` as the sink of causal edge ``flow_id``.

        With no span (a bare ``Request.test`` outside any wait), an
        instant marker span anchors the edge so it is never lost.
        """
        if span is None:
            span = self.instant("recv_complete", CAT_MPI)
        self._flows.append(FlowPoint(str(flow_id), FLOW_IN, self.rank,
                                     span.span_id, self._clock()))

    def flow_collective(self, flow_id: str, span: Span | None) -> None:
        """Mark ``span`` as one participant of collective ``flow_id``.

        The analyzer/exporter derive edges from the last-arriving
        participant (the rank that unblocked everyone) to all others.
        ``t_us`` is therefore the span's *start* (arrival) time.
        """
        if span is None:
            return
        self._flows.append(FlowPoint(str(flow_id), FLOW_COLL, self.rank,
                                     span.span_id, span.t_start_us))

    # ----------------------------------------------------------- queries
    def spans(self) -> list[Span]:
        """Closed spans, oldest first (open spans are not included)."""
        return list(self._spans)

    def recent_spans(self, n: int = 100) -> list[Span]:
        """The last ``n`` closed spans (cheap slice; the live endpoints'
        feed and the flight recorder's window)."""
        if n < 1:
            return []
        return self._spans[-n:]

    def flows(self) -> list[FlowPoint]:
        return list(self._flows)

    def open_depth(self) -> int:
        return len(self._open)

    def __len__(self) -> int:
        return len(self._spans)

    def overhead_report(self) -> dict[str, float]:
        """The tracer's own measured cost (the observability tax).

        ``self_overhead_us`` is a sampled estimate (every
        ``_OVERHEAD_STRIDE``-th operation is timed and scaled); ``ops``
        counts every begin/end/instant operation performed.
        """
        return {
            "ops": float(self._ops),
            "spans": float(len(self._spans)),
            "flows": float(len(self._flows)),
            "sampled_out": float(self.sampled_out),
            "dropped": float(self.dropped_count),
            "self_overhead_us": self.self_overhead_us,
        }
