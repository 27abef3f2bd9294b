"""The TAU component's MeasurementPort and profiler/tracer integration."""

import importlib

import pytest

from repro.cca import Component, Framework
from repro.mpi.accounting import MPIAccounting
from repro.mpi.backend import JobSpec
from repro.mpi.comm import SimComm
from repro.mpi.world import SimWorld
from repro.obs.span import CAT_COMPUTE, SpanTracer
from repro.tau.component import MeasurementPort, TauMeasurementComponent
from repro.tau.profiler import Profiler, format_profile


class Inspector(Component):
    def set_services(self, sv):
        self.sv = sv
        sv.register_uses_port("measurement", MeasurementPort)


def _one_rank_framework():
    return Framework(comm=SimComm(SimWorld(JobSpec(1)), 0))


@pytest.fixture
def wired():
    fw = _one_rank_framework()
    tau = fw.create("tau", TauMeasurementComponent)
    insp = fw.create("insp", Inspector)
    fw.connect("insp", "measurement", "tau", "measurement")
    return fw, insp.sv.get_port("measurement")


class TestMeasurementPort:
    def test_timing_interface(self, wired):
        fw, port = wired
        port.start_timer("region")
        port.stop_timer("region")
        assert fw.profiler.get("region").calls == 1

    def test_event_interface(self, wired):
        fw, port = wired
        port.record_event("array_size", 4096.0)
        port.record_event("array_size", 8192.0)
        s = fw.profiler.events.summaries()["array_size"]
        assert s["count"] == 2.0
        assert s["max"] == 8192.0

    def test_control_interface_toggles_group(self, wired):
        fw, port = wired
        port.disable_group("io")
        port.start_timer("read", "io")
        port.stop_timer("read")
        assert fw.profiler.get("read").calls == 0
        port.enable_group("io")
        port.start_timer("read", "io")
        port.stop_timer("read")
        assert fw.profiler.get("read").calls == 1

    def test_query_interface_returns_snapshot(self, wired):
        fw, port = wired
        fw.comm.accounting.record("MPI_Recv", 42.0)
        fw.profiler.counters.record_flops(7)
        snap = port.query()
        assert snap.mpi_us == 42.0
        assert snap.counters["PAPI_FP_OPS"] == 7

    def test_port_has_no_dump_the_profile_is_a_record_view(self, wired):
        # The run record is the one writer: the port renders nothing to
        # disk, and its profiler's data renders as TAU text.
        fw, port = wired
        assert not hasattr(MeasurementPort, "dump")
        port.start_timer("t")
        port.stop_timer("t")
        p = port.profiler
        text = format_profile(p.rank, p.timers_snapshot(), p.events.summaries(),
                              p.counters.read())
        assert "'t' default 1 " in text

    def test_adopts_framework_profiler_by_default(self, wired):
        fw, port = wired
        assert port.profiler is fw.profiler
        assert fw.profiler.ledger is fw.comm.accounting

    def test_injected_profiler_isolated(self):
        own = Profiler(rank=7)
        fw = _one_rank_framework()
        tau = fw.create("tau", TauMeasurementComponent, profiler=own)
        assert tau.measurement.profiler is own
        assert tau.measurement.profiler is not fw.profiler
        fw.comm.accounting.record("MPI_Send", 3.0)
        assert own.ledger is None
        assert own.group_total_us("MPI") == 0.0

    def test_uninitialized_component_raises(self):
        comp = TauMeasurementComponent()
        with pytest.raises(RuntimeError, match="not yet initialized"):
            comp.measurement


class TestProfilerTracing:
    """TAU's tracing option: the profiler records into a SpanTracer."""

    def test_timer_brackets_traced(self):
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        with p.timer("outer"):
            with p.timer("inner"):
                pass
        inner, outer = tracer.spans()  # closed inner-first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.category == outer.category == CAT_COMPUTE
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.t_start_us <= inner.t_start_us <= inner.t_end_us <= outer.t_end_us
        assert tracer.open_depth() == 0

    def test_charge_traced_as_event(self):
        # A modeled charge has no wall-clock footprint of its own: it lands
        # as ``virtual_us`` on every enclosing span (and on none outside).
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        p.ledger = ledger = MPIAccounting()
        ledger.record("MPI_Waitsome", 5.0)
        assert len(tracer) == 0
        with p.timer("outer"):
            with p.timer("inner"):
                ledger.record("MPI_Waitsome", 33.0)
            ledger.record("MPI_Waitsome", 1.0)
        inner, outer = tracer.spans()
        assert inner.attrs["virtual_us"] == 33.0
        assert outer.attrs["virtual_us"] == 34.0
        assert p.get("MPI_Waitsome").inclusive_us == 39.0

    def test_disabled_group_not_traced(self):
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        p.disable_group("g")
        p.start("t", group="g")
        p.stop("t")
        assert len(tracer) == 0
        assert tracer.open_depth() == 0
        assert p.get("t").calls == 0

    def test_no_tracer_is_fine(self):
        p = Profiler()
        with p.timer("t"):
            pass
        assert p.get("t").calls == 1

    def test_one_tracer_parameter(self):
        with pytest.raises(TypeError):
            Profiler(span_tracer=SpanTracer(rank=0))

    def test_flat_trace_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.tau.trace")


@pytest.mark.parametrize("traced", [False, True])
class TestGroupToggledInsideBracket:
    """The control interface flips groups at runtime; liveness of a
    bracketing is decided once, at ``start``."""

    def make(self, traced):
        tracer = SpanTracer(rank=0) if traced else None
        return Profiler(tracer=tracer), tracer

    def test_disabled_between_start_and_stop(self, traced):
        p, tracer = self.make(traced)
        p.start("outer")
        p.start("t", "g")
        p.disable_group("g")
        p.stop("t")
        assert p.running() == ["outer"]
        p.stop("outer")
        assert p.running() == []
        assert p.get("t").calls == 1
        assert p.get("outer").calls == 1
        if tracer is not None:
            t, outer = tracer.spans()
            assert (t.name, t.parent_id) == ("t", outer.span_id)
            assert tracer.open_depth() == 0
            # Later spans are not parented under a leaked ``t``.
            with p.timer("later"):
                pass
            assert tracer.spans()[-1].parent_id is None

    def test_enabled_between_start_and_stop(self, traced):
        p, tracer = self.make(traced)
        p.disable_group("g")
        p.start("outer")
        p.start("t", "g")
        assert p.running() == ["outer"]
        p.enable_group("g")
        assert p.stop("t").suppressed
        p.stop("outer")
        assert p.running() == []
        assert p.get("t").calls == 0
        assert p.get("outer").calls == 1
        if tracer is not None:
            assert [s.name for s in tracer.spans()] == ["outer"]
            assert tracer.open_depth() == 0

    def test_time_under_a_suppressed_frame_is_child_time(self, traced):
        now = [0.0]
        p = Profiler(clock=lambda: now[0],
                     tracer=SpanTracer(rank=0) if traced else None)
        p.disable_group("g")
        p.start("outer")         # t=0
        now[0] = 10.0
        p.start("mid", "g")      # suppressed: reads the clock, books nothing
        p.start("leaf")          # t=10
        now[0] = 20.0
        p.stop("leaf")           # t=20
        p.stop("mid")
        now[0] = 30.0
        p.stop("outer")          # t=30
        assert p.get("leaf").inclusive_us == 10.0
        assert p.get("outer").inclusive_us == 30.0
        assert p.get("outer").exclusive_us == 20.0
        assert p.get("mid").calls == 0
