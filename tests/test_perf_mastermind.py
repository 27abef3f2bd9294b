"""Mastermind: records, the call path folded from them, one interval per
call, model building, drift checks, record files."""

import itertools

import numpy as np
import pytest

from repro.cca import Framework
from repro.models.fits import fit_linear
from repro.mpi.accounting import MPIAccounting
from repro.mpi.backend import JobSpec
from repro.mpi.comm import SimComm
from repro.mpi.world import SimWorld
from repro.models.performance import PerformanceModel
from repro.perf import Mastermind
from repro.perf.records import InvocationRecord, MethodRecord, record_files
from repro.tau.component import TauMeasurementComponent
from repro.tau.hardware import AccessPattern
from repro.tau.profiler import Profiler
from repro.tau.query import InvocationMeasurement


#: how far the fixture's clock moves on each read
STEP_US = 1.0


class SteppingClock:
    """Each read returns the time and then moves it on by ``STEP_US``;
    :meth:`advance` stands in for the work a call does."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        t = self.t
        self.t += STEP_US
        return t

    def advance(self, us):
        self.t += us


@pytest.fixture
def mastermind():
    fw = Framework(comm=SimComm(SimWorld(JobSpec(1)), 0),
                   profiler=Profiler(clock=SteppingClock()))
    fw.create("tau", TauMeasurementComponent)
    mm = fw.create("mm", Mastermind)
    fw.connect("mm", "measurement", "tau", "measurement")
    return fw, mm


def invoke(fw, mm, label, method, params, busy_us=200.0, charge=None):
    """One proxied call that takes ``busy_us`` of clock time (plus the
    clock's step between the start and stop reads)."""
    token = mm.begin_invocation(label, method, params)
    fw.profiler.clock.advance(busy_us)
    if charge is not None:
        fw.comm.accounting.record("MPI_Waitsome", charge)
    mm.end_invocation(token)


class TestMonitoring:
    def test_record_created_and_filled(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "comp", "compute", {"Q": 10})
        rec = mm.record("comp", "compute")
        assert len(rec) == 1
        inv = rec.invocations[0]
        assert inv.params == {"Q": 10}
        assert inv.wall_us == 200.0 + STEP_US

    def test_mpi_time_differenced(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "comp", "compute", {"Q": 1}, busy_us=1500.0, charge=500.0)
        inv = mm.record("comp", "compute").invocations[0]
        assert inv.mpi_us == 500.0
        assert inv.wall_us == 1500.0 + STEP_US
        assert inv.compute_us == 1000.0 + STEP_US

    def test_nested_invocations_build_callpath(self, mastermind):
        fw, mm = mastermind
        # A TAU timer outside the proxied group (scmd's ``main``) is not a
        # caller: the outer invocation is called from the root.
        with fw.profiler.timer("main"):
            outer = mm.begin_invocation("a", "run", {})
            for _ in range(2):
                inner = mm.begin_invocation("b", "step", {})
                mm.end_invocation(inner)
            mm.end_invocation(outer)
        assert mm.edge_counts() == {("<root>", "a::run()"): 1,
                                    ("a::run()", "b::step()"): 2}
        assert [inv.caller for inv in mm.record("b", "step").invocations] == [
            "a::run()", "a::run()"]

    def test_unknown_token_rejected(self, mastermind):
        _, mm = mastermind
        with pytest.raises(RuntimeError, match="unknown token"):
            mm.end_invocation(999)

    def test_labels_and_all_records(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "b", "m", {}, busy_us=10)
        invoke(fw, mm, "a", "m", {}, busy_us=10)
        assert mm.labels() == ["a", "b"]
        assert [r.label for r in mm.all_records()] == ["a", "b"]

    def test_release_with_open_invocation_raises(self, mastermind):
        _, mm = mastermind
        mm.begin_invocation("x", "y", {})
        with pytest.raises(RuntimeError, match="open invocation"):
            mm.release()

    def test_requires_measurement_connection(self):
        fw = Framework()
        mm = fw.create("mm", Mastermind)
        with pytest.raises(Exception, match="MeasurementPort"):
            mm.begin_invocation("a", "b", {})


class TestModeling:
    def test_build_performance_model_from_records(self, mastermind):
        fw, mm = mastermind
        for q, busy in [(100, 100), (100, 120), (1000, 700), (1000, 800),
                        (4000, 2600), (4000, 2800)]:
            invoke(fw, mm, "k", "f", {"Q": q}, busy_us=busy)
        model = mm.build_performance_model("k", "f", mean_families=("linear",))
        assert model.mean_fit.family == "linear"
        # Cost grows with Q.
        assert model.predict_mean(4000) > model.predict_mean(100)

    def test_workload_extraction(self, mastermind):
        fw, mm = mastermind
        for q in (10, 10, 20):
            invoke(fw, mm, "k", "f", {"Q": q}, busy_us=10)
        w = mm.workload("k", "f")
        assert w.q_values == (10.0, 20.0)
        assert w.counts == (2, 1)

    def test_invalid_use_rejected(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "k", "f", {"Q": 1}, busy_us=10)
        with pytest.raises(ValueError, match="use must be one of"):
            mm.build_performance_model("k", "f", use="nonsense")

    def test_check_model_flags_drift(self, mastermind):
        fw, mm = mastermind
        for _ in range(5):
            invoke(fw, mm, "k", "f", {"Q": 100}, busy_us=300)
        # A model predicting ~0 time: every invocation violates.
        flat = PerformanceModel("flat", fit_linear([0, 1], [0.001, 0.001]))
        assert mm.check_model("k", "f", flat, floor_us=1.0) == 1.0
        # A generous model with a huge band: nothing violates.
        wide = PerformanceModel("wide", fit_linear([0, 1], [350.0, 350.0]))
        assert mm.check_model("k", "f", wide, floor_us=1e7) == 0.0


class TestReport:
    def test_report_lists_all_routines(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "a", "run", {"Q": 128}, busy_us=20)
        invoke(fw, mm, "b", "step", {}, busy_us=20)
        text = mm.report()
        assert "Mastermind measurement report:" in text
        assert "a::run()" in text and "b::step()" in text
        assert "128..128" in text  # Q range of routine a
        assert text.count("\n") >= 3

    def test_report_empty(self, mastermind):
        _, mm = mastermind
        assert "routine" in mm.report()


class TestDump:
    def test_record_files_render_from_records_state(self, mastermind):
        fw, mm = mastermind
        invoke(fw, mm, "comp", "compute", {"Q": 3}, busy_us=10)
        files = record_files(mm.records_state())
        assert list(files) == ["comp.compute.record"]
        text = files["comp.compute.record"]
        assert text == mm.record("comp", "compute").to_text()
        assert "comp::compute()" in text
        assert "Q" in text
        assert not hasattr(mm, "dump_all")


class TestMethodRecord:
    def _record(self):
        rec = MethodRecord("lbl", "meth")
        for q, w, m in [(10, 100.0, 20.0), (20, 200.0, 50.0)]:
            rec.add(InvocationRecord(
                params={"Q": q},
                measurement=InvocationMeasurement(wall_us=w, mpi_us=m),
            ))
        return rec

    def test_series(self):
        rec = self._record()
        assert np.array_equal(rec.param_series("Q"), [10.0, 20.0])
        assert np.array_equal(rec.wall_series(), [100.0, 200.0])
        assert np.array_equal(rec.mpi_series(), [20.0, 50.0])
        assert np.array_equal(rec.compute_series(), [80.0, 150.0])
        assert rec.total_mpi_us() == 70.0
        assert rec.total_wall_us() == 300.0

    def test_missing_param_raises(self):
        rec = self._record()
        with pytest.raises(KeyError, match="missing"):
            rec.param_series("nope")

    def test_timer_name(self):
        assert self._record().timer_name == "lbl::meth()"

    def test_to_text_contains_rows(self):
        text = self._record().to_text()
        assert "lbl::meth()" in text
        assert "100.000" in text


class TestOneInterval:
    """A record is the stopped TAU frame of its call, nothing else."""

    def test_wall_is_the_frame_clock_interval(self):
        ticks = itertools.count()
        prof = Profiler(clock=lambda: 10.0 * next(ticks))
        prof.ledger = ledger = MPIAccounting()
        fw = Framework()
        fw.create("tau", TauMeasurementComponent, profiler=prof)
        mm = fw.create("mm", Mastermind)
        fw.connect("mm", "measurement", "tau", "measurement")
        token = mm.begin_invocation("comp", "compute", {"Q": 1})
        ledger.record("MPI_Send", 5.0)
        mm.end_invocation(token)
        inv = mm.record("comp", "compute").invocations[0]
        # One clock read at start, one at stop; the charge extends the
        # timer's inclusive time but not the record's wall time.
        assert inv.wall_us == 10.0
        assert inv.mpi_us == 5.0
        assert prof.get("comp::compute()").inclusive_us == 15.0

    def test_records_match_query_oracle(self, mastermind):
        fw, mm = mastermind
        port = fw.component("tau").measurement
        ctr = fw.profiler.counters
        windows = {}

        def call(depth):
            label = f"level{depth}"
            before = port.query()
            token = mm.begin_invocation(label, "run", {"depth": depth})
            fw.comm.accounting.record("MPI_Send", 1.1 * (depth + 1))
            ctr.record_flops(100 * (depth + 1))
            ctr.record_array_walk(4096 * (depth + 1), pattern=AccessPattern.STRIDED,
                                  stride_elements=16)
            if depth < 2:
                for _ in range(2):
                    call(depth + 1)
                fw.comm.accounting.record("MPI_Waitsome", 0.3)
                ctr.record_flops(7)
            mm.end_invocation(token)
            windows.setdefault(label, []).append((before, port.query()))

        call(0)
        for rec in mm.all_records():
            assert len(rec) == len(windows[rec.label])
            for inv, (before, after) in zip(rec.invocations, windows[rec.label]):
                assert inv.mpi_us == after.mpi_us - before.mpi_us
                assert inv.measurement.counters == {
                    k: v - before.counters.get(k, 0) for k, v in after.counters.items()}
                # The window's two reads sit one clock step outside the
                # frame's.
                assert inv.wall_us == after.wall_us - before.wall_us - 2 * STEP_US
        assert mm.edge_counts() == {("<root>", "level0::run()"): 1,
                                    ("level0::run()", "level1::run()"): 2,
                                    ("level1::run()", "level2::run()"): 4}

    def test_disabled_proxied_group_still_records(self, mastermind):
        fw, mm = mastermind
        fw.component("tau").measurement.disable_group(Mastermind.TIMER_GROUP)
        outer = mm.begin_invocation("a", "run", {})
        inner = mm.begin_invocation("b", "step", {"Q": 3})
        fw.comm.accounting.record("MPI_Recv", 42.0)
        fw.profiler.counters.record_flops(9)
        mm.end_invocation(inner)
        mm.end_invocation(outer)
        inv = mm.record("b", "step").invocations[0]
        assert inv.params == {"Q": 3}
        assert inv.mpi_us == 42.0
        assert inv.measurement.counters == {"PAPI_FP_OPS": 9}
        assert inv.caller == "a::run()"
        assert mm.record("a", "run").invocations[0].mpi_us == 42.0
        assert mm.edge_counts() == {("<root>", "a::run()"): 1, ("a::run()", "b::step()"): 1}
        # The disabled group still books nothing in the TAU profile.
        assert fw.profiler.get("b::step()").calls == 0
