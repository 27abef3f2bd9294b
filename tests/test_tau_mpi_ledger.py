"""MPI time has one store, the rank's ledger: TAU's ``MPI`` rows, the
MPI metrics series and the flight recorder's dump are reads of it, on
both the thread and the mp-shm backend."""

import json

import pytest

from repro.cca import Component, Framework, run_scmd
from repro.cca.ports import GoPort
from repro.mpi.request import waitall
from repro.obs.export import rank_metrics
from repro.obs.flightrec import dump_flight_recorders
from repro.obs.record import rank_record
from repro.obs.runtime import ObsConfig
from repro.tau.component import TauMeasurementComponent
from repro.tau.profiler import MPI_GROUP

NRANKS = 3
ROUNDS = 6


class RingDriver(Component, GoPort):
    """A few rounds of point-to-point and collective traffic, so every
    rank charges several routines with jittered costs."""

    def set_services(self, sv):
        self.sv = sv
        sv.add_provides_port(self, "go", GoPort)

    def go(self):
        comm = self.sv.get_port(Framework.MPI_PORT).comm()
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        total = 0
        for i in range(ROUNDS):
            reqs = [comm.isend(comm.rank * 10 + i, dest=right, tag=i),
                    comm.irecv(source=left, tag=i)]
            waitall(reqs)
            total += comm.allreduce(reqs[1].payload)
            comm.bcast(total, root=i % comm.size)
        comm.barrier()
        return total


def compose(fw):
    fw.create("driver", RingDriver)
    fw.create("tau", TauMeasurementComponent)


@pytest.mark.parametrize("backend", ["thread", "mp-shm"])
def test_tau_mpi_rows_are_the_ledger_rows(backend):
    res = run_scmd(NRANKS, compose, go_instance="driver", backend=backend,
                   seed=0, timeout_s=60.0)
    for r, snap in enumerate(res.timer_snapshots):
        rows = {n: (t.calls, t.inclusive_us, t.exclusive_us)
                for n, t in snap.items() if t.group == MPI_GROUP}
        ledger = {n: (st.calls, st.total_us, st.total_us)
                  for n, st in res.world.accounting[r].routine_totals().items()}
        assert rows == ledger
        assert rows["MPI_Allreduce"][0] == ROUNDS


@pytest.mark.parametrize("backend", ["thread", "mp-shm"])
def test_flight_recorder_dump_holds_the_ledger_rows(backend, tmp_path):
    res = run_scmd(NRANKS, compose, go_instance="driver", backend=backend,
                   seed=0, timeout_s=60.0,
                   observe=ObsConfig(flight_recorder=True,
                                     flightrec_dir=str(tmp_path)))
    for r, ro in enumerate(res.world.obs):
        ledger = res.world.accounting[r]
        # mp-shm ships a rank's obs and its ledger home in one pickle, so
        # the launcher's RankObs still reads that very ledger.
        assert ro.ledger is ledger
        rows = ledger.routine_totals()
        (path,) = dump_flight_recorders([ro], "test", str(tmp_path))
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["ledger"] == {
            n: {"calls": st.calls, "total_us": st.total_us}
            for n, st in rows.items()}
        # The metrics view reads the same rows: one store, no copy.
        view = rank_metrics(rank_record(ro))
        for n, st in rows.items():
            assert view.counter("mpi_calls_total", routine=n).value == st.calls
            assert view.counter("mpi_cost_us_total",
                                routine=n).value == st.total_us
