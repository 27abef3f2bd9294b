"""Measurement snapshots, invocation measurements and the Figure-3 summary."""

import itertools

import pytest

from repro.mpi.accounting import MPIAccounting
from repro.tau.profiler import Profiler
from repro.tau.query import InvocationMeasurement, MeasurementSnapshot
from repro.tau.summary import function_summary, merge_snapshots, summary_rows
from repro.tau.timer import TimerStats


class TestSnapshots:
    def test_capture_reads_cumulative(self):
        p = Profiler()
        p.ledger = MPIAccounting()
        p.ledger.record("MPI_Send", 10.0)
        p.counters.record_flops(5)
        snap = MeasurementSnapshot.capture(p)
        assert snap.mpi_us == 10.0
        assert snap.counters["PAPI_FP_OPS"] == 5

    def test_capture_reads_the_profilers_clock(self):
        # The query window and the frames it brackets are on one clock.
        ticks = itertools.count()
        p = Profiler(clock=lambda: 10.0 * next(ticks))
        before = MeasurementSnapshot.capture(p)
        p.start("t")
        frame = p.stop("t")
        after = MeasurementSnapshot.capture(p)
        assert (before.wall_us, frame.t_start_us, frame.t_end_us, after.wall_us) == (
            0.0, 10.0, 20.0, 30.0)

    def test_compute_floor_at_zero(self):
        inv = InvocationMeasurement(wall_us=5.0, mpi_us=20.0)
        assert inv.compute_us == 0.0


def _stats(name, incl, excl, calls, group="default"):
    return TimerStats(name=name, group=group, inclusive_us=incl,
                      exclusive_us=excl, calls=calls)


class TestMergeAndSummary:
    def test_merge_averages_over_ranks(self):
        s0 = {"a": _stats("a", 100.0, 50.0, 2)}
        s1 = {"a": _stats("a", 300.0, 150.0, 4)}
        merged = merge_snapshots([s0, s1])
        assert merged["a"].inclusive_us == 200.0
        assert merged["a"].exclusive_us == 100.0
        assert merged["a"].calls == 6  # total across ranks

    def test_merge_handles_missing_timer_on_a_rank(self):
        s0 = {"a": _stats("a", 100.0, 100.0, 1)}
        s1 = {}
        merged = merge_snapshots([s0, s1])
        assert merged["a"].inclusive_us == 50.0

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_snapshots([])

    def test_rows_sorted_and_percent(self):
        merged = {
            "main": _stats("main", 1000.0, 100.0, 1),
            "sub": _stats("sub", 900.0, 900.0, 3),
        }
        rows = summary_rows(merged, nranks=1, total_name="main")
        assert rows[0][5] == "main" and rows[0][0] == 100.0
        assert rows[1][5] == "sub" and rows[1][0] == pytest.approx(90.0)

    def test_rows_unknown_total_raises(self):
        with pytest.raises(KeyError):
            summary_rows({"a": _stats("a", 1, 1, 1)}, total_name="zzz")

    def test_function_summary_renders(self):
        s = {"main": _stats("main", 5000.0, 5000.0, 1)}
        text = function_summary([s])
        assert "FUNCTION SUMMARY (mean):" in text
        assert "main" in text
        assert "%Time" in text

    def test_usec_per_call_uses_mean_calls(self):
        s0 = {"f": _stats("f", 100.0, 100.0, 10)}
        s1 = {"f": _stats("f", 100.0, 100.0, 10)}
        rows = summary_rows(merge_snapshots([s0, s1]), nranks=2)
        # mean inclusive 100us over mean 10 calls -> 10us/call
        assert rows[0][4] == pytest.approx(10.0)
