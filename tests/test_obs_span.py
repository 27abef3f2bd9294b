"""Span tracer unit tests: nesting, sampling, bounding, flows, overhead."""

import hashlib
import json
import pickle

import pytest

from repro.obs.export import chrome_trace_from_spans
from repro.obs.span import (CAT_COMPUTE, CAT_MPI, CAT_MPI_WAIT, FLOW_COLL,
                            FLOW_IN, FLOW_OUT, FlowPoint, Span, SpanTracer)


def make_tracer(**kw):
    kw.setdefault("rank", 0)
    return SpanTracer(**kw)


# ------------------------------------------------------------------ nesting
def test_nested_spans_record_parents():
    tr = make_tracer()
    outer = tr.start("outer", CAT_COMPUTE)
    inner = tr.start("inner", CAT_COMPUTE)
    assert inner.parent_id == outer.span_id
    assert tr.current() is inner
    tr.end(inner)
    assert tr.current() is outer
    tr.end(outer)
    assert tr.current() is None
    spans = tr.spans()
    # Closed innermost-first.
    assert [s.name for s in spans] == ["inner", "outer"]
    assert spans[0].t_start_us >= spans[1].t_start_us
    assert all(s.t_end_us >= s.t_start_us for s in spans)


def test_span_ids_unique_and_rank_scoped():
    a, b = make_tracer(rank=1), make_tracer(rank=2)
    ids = set()
    for tr in (a, b):
        for _ in range(5):
            sp = tr.start("x")
            tr.end(sp)
            ids.add(sp.span_id)
    assert len(ids) == 10
    assert all(s.span_id >> 40 == 1 for s in a.spans())
    assert all(s.span_id >> 40 == 2 for s in b.spans())


def test_context_manager_closes_on_exception():
    tr = make_tracer()
    with pytest.raises(RuntimeError):
        with tr.span("boom", CAT_COMPUTE):
            raise RuntimeError("x")
    assert tr.open_depth() == 0
    assert [s.name for s in tr.spans()] == ["boom"]


def test_attrs_and_instant():
    tr = make_tracer()
    with tr.span("work", CAT_COMPUTE, step=3) as sp:
        mark = tr.instant("marker", CAT_MPI, reason="test")
    assert sp.attrs == {"step": 3}
    assert mark.parent_id == sp.span_id
    assert mark.duration_us == 0.0
    assert mark.attrs == {"reason": "test"}


# ----------------------------------------------------------------- sampling
def test_sampling_keeps_first_and_one_in_n():
    tr = make_tracer(sample_every=4)
    kept = 0
    for _ in range(12):
        sp = tr.start("kernel", sampled=True)
        if sp is not None:
            kept += 1
        tr.end(sp)
    assert kept == 3  # occurrences 0, 4, 8
    assert tr.sampled_out == 9
    # A different name starts its own counter: first occurrence always kept.
    assert tr.start("other", sampled=True) is not None


def test_unsampled_spans_ignore_sample_every():
    tr = make_tracer(sample_every=1000)
    for _ in range(10):
        sp = tr.start("MPI_Send", CAT_MPI, sampled=False)
        tr.end(sp)
    assert len(tr.spans()) == 10
    assert tr.sampled_out == 0


def test_end_none_is_noop():
    tr = make_tracer(sample_every=2)
    first = tr.start("k", sampled=True)
    tr.end(first)
    second = tr.start("k", sampled=True)
    assert second is None
    tr.end(second)
    assert len(tr.spans()) == 1


# ---------------------------------------------------- bounding (satellite 1)
def test_overflow_drops_oldest_and_counts():
    tr = make_tracer(max_spans=10)
    for i in range(25):
        sp = tr.start(f"s{i}")
        tr.end(sp)
    assert tr.dropped_count > 0
    assert len(tr.spans()) <= 10
    # Newest work survives; the oldest history is what went away.
    assert tr.spans()[-1].name == "s24"
    assert tr.dropped_count + len(tr.spans()) == 25
    assert tr.overhead_report()["dropped"] == float(tr.dropped_count)

    # Flow points are evicted with the spans they are anchored on.
    tr = make_tracer(max_spans=10)
    with tr.span("step") as still_open:
        for i in range(1000):
            with tr.span("MPI_Isend", CAT_MPI) as sp:
                tr.flow_out(str(i), sp)
        tr.flow_collective("c:0:1", still_open)
        assert len(tr.spans()) <= 10
        assert tr.dropped_count + len(tr.spans()) == 1000
        # The flow list is bounded with the spans it points into ...
        assert len(tr.flows()) <= len(tr.spans()) + 1
        # ... and every kept flow resolves to a kept or still-open span.
        live = {s.span_id for s in tr.spans()} | {still_open.span_id}
        assert {f.span_id for f in tr.flows()} <= live
        assert tr.flows()[-1].flow_id == "c:0:1"


# -------------------------------------------------------------------- flows
def test_flow_points_record_endpoints():
    tr = make_tracer()
    with tr.span("MPI_Send", CAT_MPI) as s:
        tr.flow_out("42", s)
    with tr.span("MPI_Recv", CAT_MPI) as r:
        tr.flow_in("42", r)
    with tr.span("MPI_Barrier", CAT_MPI) as c:
        tr.flow_collective("c:0:1", c)
    kinds = [(f.kind, f.flow_id, f.span_id) for f in tr.flows()]
    assert kinds == [(FLOW_OUT, "42", s.span_id),
                     (FLOW_IN, "42", r.span_id),
                     (FLOW_COLL, "c:0:1", c.span_id)]
    # Collective t_us is the span's start (arrival time).
    assert tr.flows()[2].t_us == c.t_start_us


def test_flow_without_span_anchors_instant():
    tr = make_tracer()
    tr.flow_in("7", None)
    tr.flow_out("8", None)
    assert [s.name for s in tr.spans()] == ["recv_complete", "flow_out"]
    assert {f.flow_id for f in tr.flows()} == {"7", "8"}
    # A sampled-out collective participant records nothing (no edge anchor
    # is better than a wrong one; collectives are never sampled in practice).
    tr.flow_collective("c:0:0", None)
    assert len(tr.flows()) == 2


# ----------------------------------------------------------------- overhead
def test_overhead_report_fields_and_accumulation():
    tr = make_tracer()
    for _ in range(200):
        tr.end(tr.start("w"))
    rep = tr.overhead_report()
    assert set(rep) == {"ops", "spans", "flows", "sampled_out", "dropped",
                       "self_overhead_us"}
    assert rep["ops"] == 400.0
    assert rep["spans"] == 200.0
    # Sampled every 16 ops; with 400 ops some probes must have fired.
    assert rep["self_overhead_us"] > 0.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        SpanTracer(max_spans=1)
    with pytest.raises(ValueError):
        SpanTracer(sample_every=0)


# ------------------------------------------------- records survive transport
class StepClock:
    """Each read is one microsecond later than the last (picklable)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _two_rank_trace():
    """A send/recv edge, a collective, an instant, all under a step span."""
    a, b = (SpanTracer(rank=r, clock=StepClock()) for r in range(2))
    with a.span("step", CAT_COMPUTE, step=3):
        with a.span("MPI_Isend", CAT_MPI, dest=1, tag=7) as send:
            a.flow_out(41, send)
        with b.span("MPI_Waitsome", CAT_MPI_WAIT, n=1) as recv:
            b.flow_in(41, recv)
        for tr in (a, b):
            with tr.span("MPI_Barrier", CAT_MPI_WAIT, coll_seq=0) as sp:
                tr.flow_collective("c:world:0", sp)
        a.instant("fault", CAT_MPI, kind="drop")
    return a, b


def test_span_round_trips_through_dict():
    a, _b = _two_rank_trace()
    for span in a.spans():
        twin = Span(**span.to_dict())
        assert twin == span
        assert twin.attrs is not span.attrs
    assert a.spans()[0].to_dict() == {
        "span_id": 1, "parent_id": 0, "rank": 0, "name": "MPI_Isend",
        "category": "mpi", "t_start_us": 2.0, "t_end_us": 4.0,
        "attrs": {"dest": 1, "tag": 7}}


def test_flow_point_is_an_immutable_value():
    a, _b = _two_rank_trace()
    fp = a.flows()[0]
    assert fp == FlowPoint("41", FLOW_OUT, 0, 1, 3.0)
    assert fp == FlowPoint(flow_id="41", kind=FLOW_OUT, rank=0, span_id=1,
                           t_us=3.0)
    assert len({fp, FlowPoint("41", FLOW_OUT, 0, 1, 3.0)}) == 1
    with pytest.raises(AttributeError):
        fp.t_us = 0.0


def test_tracer_pickles_with_spans_and_flows():
    # The mp-shm worker ships its finished tracer home inside RankObs.
    for tracer in _two_rank_trace():
        twin = pickle.loads(pickle.dumps(tracer))
        assert twin.spans() == tracer.spans()
        assert twin.flows() == tracer.flows()
        assert twin.overhead_report() == tracer.overhead_report()


def test_chrome_trace_of_the_records_is_unchanged():
    """The exporter's output for a fixed trace, byte for byte (the digest
    was taken before Span became a slots record and FlowPoint a tuple)."""
    a, b = _two_rank_trace()
    spans, flows = a.spans() + b.spans(), a.flows() + b.flows()
    events = chrome_trace_from_spans(spans, flows)
    assert hashlib.sha256(json.dumps(events).encode()).hexdigest() == (
        "38cc005d185219d890625c6681d8347a5c7e6d715fc27662d35e7426d5071669")
    shipped = pickle.loads(pickle.dumps((spans, flows)))
    assert chrome_trace_from_spans(*shipped) == events
    assert chrome_trace_from_spans(
        [Span(**s.to_dict()) for s in spans], flows) == events
