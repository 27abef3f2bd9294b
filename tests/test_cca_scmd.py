"""SCMD launcher: cohorts, MPI wiring, profiling, extras."""

import pytest

from repro.cca import Component, Framework, run_scmd
from repro.cca.ports import GoPort
from repro.cca.scmd import MAIN_TIMER
from repro.mpi.network import LOOPBACK
from repro.tau.component import TauMeasurementComponent


class CohortDriver(Component, GoPort):
    """Exercises the builtin MPI port from inside a component."""

    def set_services(self, sv):
        self.sv = sv
        sv.add_provides_port(self, "go", GoPort)

    def go(self):
        comm = self.sv.get_port(Framework.MPI_PORT).comm()
        return comm.allreduce(comm.rank + 1)


def compose(fw):
    fw.create("driver", CohortDriver)


def test_scmd_runs_cohort_on_all_ranks():
    res = run_scmd(3, compose, go_instance="driver", network=LOOPBACK)
    assert res.results == [6, 6, 6]
    assert res.nranks == 3


def test_scmd_main_timer_present():
    res = run_scmd(2, compose, go_instance="driver", network=LOOPBACK)
    for snap in res.timer_snapshots:
        assert MAIN_TIMER in snap
        assert snap[MAIN_TIMER].calls == 1


def test_scmd_mpi_charges_flow_to_profiler():
    """Wiring a TAU component routes MPI into the profiler, once however
    many adopt it."""
    def with_tau(fw):
        compose(fw)
        fw.create("tau", TauMeasurementComponent)
        fw.create("tau_twin", TauMeasurementComponent)

    res = run_scmd(2, with_tau, go_instance="driver", network=LOOPBACK)
    for snap in res.timer_snapshots:
        assert "MPI_Allreduce" in snap
        assert snap["MPI_Allreduce"].group == "MPI"
        assert snap["MPI_Allreduce"].calls == 1


def test_scmd_mpi_charges_skip_profiler_without_tau():
    res = run_scmd(2, compose, go_instance="driver", network=LOOPBACK)
    for snap in res.timer_snapshots:
        assert set(snap) == {MAIN_TIMER}
    assert res.world.accounting[0].calls("MPI_Allreduce") == 1


def test_scmd_compose_result_used_without_go():
    res = run_scmd(2, lambda fw: "composed", network=LOOPBACK)
    assert res.results == ["composed", "composed"]


def test_scmd_extract_collects_extras():
    res = run_scmd(
        2, compose, go_instance="driver", network=LOOPBACK,
        extract=lambda fw: fw.rank * 100,
    )
    assert res.extras == [0, 100]


def test_scmd_world_exposes_accounting():
    res = run_scmd(2, compose, go_instance="driver", network=LOOPBACK)
    assert res.world is not None
    assert res.world.accounting[0].calls("MPI_Allreduce") == 1


def test_scmd_rank_failure_propagates():
    class Bad(Component, GoPort):
        def set_services(self, sv):
            sv.add_provides_port(self, "go", GoPort)

        def go(self):
            raise RuntimeError("component exploded")

    with pytest.raises(Exception, match="component exploded"):
        run_scmd(2, lambda fw: fw.create("driver", Bad),
                 go_instance="driver", network=LOOPBACK, timeout_s=10.0)


def test_scmd_events_and_counters_collected():
    class Instrumenting(Component, GoPort):
        def set_services(self, sv):
            self.sv = sv
            sv.add_provides_port(self, "go", GoPort)

        def go(self):
            fw = self.sv.framework
            fw.profiler.events.record("my_event", 2.0)
            fw.profiler.counters.record_flops(10)
            return 0

    res = run_scmd(2, lambda fw: fw.create("driver", Instrumenting),
                   go_instance="driver", network=LOOPBACK)
    assert res.event_summaries[0]["my_event"]["count"] == 1.0
    assert res.counter_values[1]["PAPI_FP_OPS"] == 10
