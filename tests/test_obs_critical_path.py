"""Critical-path analyzer tests on hand-built span DAGs."""

import numpy as np
import pytest

from repro.obs.critical_path import (CriticalPathReport, crosscheck_ledger,
                                     crosscheck_records, critical_path,
                                     flow_edges, leaf_spans,
                                     per_step_critical_paths)
from repro.obs.span import (CAT_COMPUTE, CAT_MPI, CAT_MPI_WAIT, CAT_STEP,
                            FLOW_COLL, FLOW_IN, FLOW_OUT, FlowPoint, Span)


def S(sid, rank, name, cat, t0, t1, parent=None, **attrs):
    return Span(span_id=sid, parent_id=parent, rank=rank, name=name,
                category=cat, t_start_us=t0, t_end_us=t1, attrs=attrs)


def two_rank_dag():
    """rank 0: compute[0,100] send[100,110];  rank 1: compute[0,30] recv[30,120].

    The recv is gated by the send (flow "1"), so the critical path is
    compute A (100) -> send (10) -> recv tail (10) = 120 = the full wall.
    """
    spans = [
        S(1, 0, "A", CAT_COMPUTE, 0.0, 100.0),
        S(2, 0, "MPI_Send", CAT_MPI, 100.0, 110.0),
        S(3, 1, "B", CAT_COMPUTE, 0.0, 30.0),
        S(4, 1, "MPI_Recv", CAT_MPI_WAIT, 30.0, 120.0),
    ]
    flows = [
        FlowPoint("1", FLOW_OUT, 0, 2, 110.0),
        FlowPoint("1", FLOW_IN, 1, 4, 120.0),
    ]
    return spans, flows


def test_leaf_spans_excludes_parents():
    parent = S(1, 0, "outer", CAT_COMPUTE, 0.0, 10.0)
    child = S(2, 0, "inner", CAT_COMPUTE, 2.0, 8.0, parent=1)
    assert leaf_spans([parent, child]) == [child]


def test_flow_edges_p2p_and_collective():
    flows = [
        FlowPoint("9", FLOW_OUT, 0, 10, 5.0),
        FlowPoint("9", FLOW_IN, 1, 20, 9.0),
        FlowPoint("c:0:1", FLOW_COLL, 0, 30, 4.0),
        FlowPoint("c:0:1", FLOW_COLL, 1, 31, 7.0),  # last arriver
        FlowPoint("c:0:1", FLOW_COLL, 2, 32, 2.0),
        FlowPoint("orphan", FLOW_IN, 2, 40, 1.0),  # no source: no edge
    ]
    preds = flow_edges(flows)
    assert preds[20] == [10]
    assert preds[30] == [31] and preds[32] == [31]
    assert 31 not in preds and 40 not in preds


def test_critical_path_follows_cross_rank_dependency():
    spans, flows = two_rank_dag()
    rep = critical_path(spans, flows)
    assert rep.total_wall_us == 120.0
    assert rep.path_us == pytest.approx(120.0)
    assert rep.cross_rank_hops == 1
    assert [seg.name for seg in rep.segments] == ["MPI_Recv", "MPI_Send", "A"]
    assert rep.breakdown == pytest.approx(
        {"mpi_wait": 10.0, "mpi": 10.0, "compute": 100.0})


def test_critical_path_never_exceeds_wall():
    spans, flows = two_rank_dag()
    rep = critical_path(spans, flows)
    assert rep.path_us <= rep.total_wall_us + 1e-9


def test_sched_time_counts_as_compute_and_is_named():
    """Time a hop's rank sat queued for the run token is a peer's work:
    compute on the path, and reported as the sched bucket."""
    spans, flows = two_rank_dag()
    spans[3].attrs["sched_us"] = 6.0
    rep = critical_path(spans, flows)
    assert rep.sched_us == pytest.approx(6.0)
    assert rep.breakdown == pytest.approx(
        {"mpi_wait": 4.0, "mpi": 10.0, "compute": 106.0})
    assert rep.path_us == pytest.approx(120.0)  # total unchanged
    assert "sched: 6.0us" in rep.format()
    # Never more than the hop was critical for.
    spans[3].attrs["sched_us"] = 500.0
    rep = critical_path(spans, flows)
    assert rep.sched_us == pytest.approx(10.0)
    assert "mpi_wait" not in rep.breakdown


def test_untraced_gap_attribution():
    # Two sequential leaves with a hole between them on one rank.
    spans = [
        S(1, 0, "A", CAT_COMPUTE, 0.0, 10.0),
        S(2, 0, "B", CAT_COMPUTE, 50.0, 60.0),
    ]
    rep = critical_path(spans, [])
    assert rep.breakdown["compute"] == pytest.approx(20.0)
    assert rep.breakdown["untraced"] == pytest.approx(40.0)
    assert rep.path_us == pytest.approx(60.0)


def test_gap_inside_parent_attributed_to_parent_category():
    parent = S(1, 0, "step0", CAT_STEP, 0.0, 100.0)
    spans = [
        parent,
        S(2, 0, "A", CAT_COMPUTE, 0.0, 10.0, parent=1),
        S(3, 0, "B", CAT_COMPUTE, 70.0, 100.0, parent=1),
    ]
    rep = critical_path(spans, [])
    assert rep.breakdown["step"] == pytest.approx(60.0)
    assert rep.breakdown["compute"] == pytest.approx(40.0)


def test_window_clipping():
    spans, flows = two_rank_dag()
    rep = critical_path(spans, flows, window=(0.0, 50.0))
    assert rep.total_wall_us == 50.0
    assert rep.path_us <= 50.0 + 1e-9


def test_per_step_windows_from_step_spans():
    spans = [
        S(1, 0, "timestep", CAT_STEP, 0.0, 50.0, step=0),
        S(2, 1, "timestep", CAT_STEP, 0.0, 55.0, step=0),
        S(3, 0, "timestep", CAT_STEP, 55.0, 90.0, step=1),
        S(4, 1, "timestep", CAT_STEP, 55.0, 100.0, step=1),
        S(5, 0, "w0", CAT_COMPUTE, 0.0, 50.0, parent=1),
        S(6, 0, "w1", CAT_COMPUTE, 55.0, 90.0, parent=3),
    ]
    out = per_step_critical_paths(spans, [])
    assert sorted(out) == [0, 1]
    assert out[0].t0_us == 0.0 and out[0].t1_us == 55.0
    assert out[1].t0_us == 55.0 and out[1].t1_us == 100.0
    assert isinstance(out[0], CriticalPathReport)
    assert out[0].path_us <= out[0].total_wall_us + 1e-9


def test_empty_and_degenerate_inputs():
    assert critical_path([], []).path_us == 0.0
    lone = [S(1, 0, "only", CAT_COMPUTE, 5.0, 5.0)]  # zero duration
    rep = critical_path(lone, [])
    assert rep.path_us == 0.0


# ------------------------------------------------------------- crosschecks
class _FakeRecord:
    def __init__(self, timer_name, walls):
        self.timer_name = timer_name
        self._walls = np.asarray(walls, dtype=float)

    def wall_series(self):
        return self._walls


def test_crosscheck_records_compares_real_walls():
    spans = [
        S(1, 0, "k::f()", CAT_COMPUTE, 0.0, 100.0),
        S(2, 1, "k::f()", CAT_COMPUTE, 0.0, 98.0),
    ]
    # virtual_us must NOT enter the comparison (records are now_us deltas).
    spans[0].attrs["virtual_us"] = 1e6
    recs = [{("k", "f"): _FakeRecord("k::f()", [100.0])},
            {("k", "f"): _FakeRecord("k::f()", [100.0])}]
    out = crosscheck_records(spans, recs)
    s_us, r_us, err = out["k::f()"]
    assert s_us == pytest.approx(198.0)
    assert r_us == pytest.approx(200.0)
    assert err == pytest.approx(0.01)


class _FakeLedger:
    def __init__(self, totals):
        self._totals = totals

    def routine_totals(self):
        class _St:
            def __init__(self, calls):
                self.calls = calls
        return {r: _St(c) for r, c in self._totals.items()}


def test_crosscheck_ledger_counts_mpi_spans():
    spans = [
        S(1, 0, "MPI_Send", CAT_MPI, 0.0, 1.0),
        S(2, 0, "MPI_Send", CAT_MPI, 1.0, 2.0),
        S(3, 1, "MPI_Recv", CAT_MPI_WAIT, 0.0, 2.0),
        S(4, 0, "not_mpi", CAT_COMPUTE, 0.0, 1.0),
    ]
    ledgers = [_FakeLedger({"MPI_Send": 2, "MPI_Other": 9}),
               _FakeLedger({"MPI_Recv": 1})]
    out = crosscheck_ledger(spans, ledgers)
    # Only routines appearing as span names are compared.
    assert out == {"MPI_Send": (2, 2), "MPI_Recv": (1, 1)}


def test_report_format_renders():
    spans, flows = two_rank_dag()
    rep = critical_path(spans, flows)
    text = rep.format()
    assert "Critical path" in text
    assert "cross-rank hop" in text
    assert "MPI_Recv" in text
