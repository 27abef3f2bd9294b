"""ParallelRunner and MPIAccounting behaviour."""

import dataclasses
import inspect
import os
import pickle
import time

import pytest

from repro.mpi import (JobSpec, MPIAccounting, NetworkModel, ParallelRunner,
                       RankFailure, SimWorld, create_world)
from repro.mpi import backend as launcher
from repro.mpi import mpshm
from repro.mpi.network import LOOPBACK


def test_results_ordered_by_rank(runner3):
    assert runner3.run(lambda comm: comm.rank * 10) == [0, 10, 20]


def test_args_and_kwargs_forwarded(runner3):
    def job(comm, a, b=0):
        return comm.rank + a + b

    assert runner3.run(job, 100, b=1) == [101, 102, 103]


def test_rank_exception_aborts_and_reports():
    def job(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.recv(source=1)  # would deadlock without abort

    runner = ParallelRunner(2, network=LOOPBACK, timeout_s=10.0)
    with pytest.raises(RankFailure) as exc_info:
        runner.run(job)
    assert "boom on rank 1" in str(exc_info.value)
    assert 1 in exc_info.value.failures


def test_secondary_abort_failures_suppressed():
    """Ranks killed by the abort shouldn't mask the root cause."""

    def job(comm):
        if comm.rank == 0:
            comm.barrier()  # blocks; gets aborted
        raise RuntimeError("primary failure")

    runner = ParallelRunner(2, network=LOOPBACK, timeout_s=10.0)
    with pytest.raises(RankFailure) as exc_info:
        runner.run(job)
    assert "primary failure" in str(exc_info.value)


def test_world_accessible_after_run(runner3):
    runner3.run(lambda comm: comm.allreduce(1))
    world = runner3.last_world
    assert world is not None
    assert all(acct.calls("MPI_Allreduce") == 1 for acct in world.accounting)


def test_single_rank_run():
    runner = ParallelRunner(1, network=LOOPBACK)
    assert runner.run(lambda comm: comm.allreduce(5)) == [5]


def test_invalid_nranks():
    with pytest.raises(ValueError):
        ParallelRunner(0)


def test_unknown_keyword_is_a_type_error_naming_it():
    # A removed option ("collectives") must fail loudly, not be ignored.
    for keyword in ("colectives", "collectives"):
        with pytest.raises(TypeError, match=keyword):
            ParallelRunner(2, **{keyword: "hier"})


def test_network_none_means_the_default_model():
    assert ParallelRunner(2, network=None).spec.network == NetworkModel()


def test_launch_path_declares_none_of_the_job_options():
    """A run's options are JobSpec's fields and nobody else's parameters:
    a new option must not need a signature edit anywhere on the way from
    the runner to the world."""
    options = {f.name for f in dataclasses.fields(JobSpec)} - {"nranks"}
    assert options >= {"injector", "policy", "obs_config", "sanitize",
                       "seed", "network", "timeout_s"}
    for fn in (ParallelRunner.__init__, SimWorld.__init__,
               mpshm.ShmWorld.__init__, launcher.ThreadBackend.launch,
               mpshm.MpShmBackend.launch, mpshm._worker_main):
        declared = options & set(inspect.signature(fn).parameters)
        assert not declared, (fn.__qualname__, declared)


@pytest.mark.parametrize("backend", ["thread", "mp-shm"])
def test_stuck_ranks_hold_the_launcher_for_one_deadline(backend, monkeypatch):
    """Ranks stuck outside MPI: every one is named, after one launcher
    deadline (timeout_s + grace), not one per rank - and no shared-memory
    segment of the job outlives it."""
    monkeypatch.setattr(launcher, "THREAD_GRACE_S", 0.2)
    monkeypatch.setattr(mpshm, "PROCESS_GRACE_S", 0.2)

    def job(comm):
        with comm.world.off_token(comm.rank):  # a no-op on mp-shm
            time.sleep(2.5)

    segments = set(os.listdir("/dev/shm"))
    t0 = time.monotonic()
    with pytest.raises(RankFailure, match="did not terminate") as exc:
        create_world(backend, nranks=4, timeout_s=0.2).run(job)
    # One deadline is 0.4 s, four of them 1.6 s.
    assert time.monotonic() - t0 < 1.2
    assert sorted(exc.value.failures) == [0, 1, 2, 3]
    assert set(os.listdir("/dev/shm")) == segments


class TestAccounting:
    def test_record_and_total(self):
        a = MPIAccounting()
        a.record("MPI_Send", 2.0)
        a.record("MPI_Send", 3.0)
        a.record("MPI_Recv", 10.0)
        assert a.total_us() == 15.0
        assert a.calls("MPI_Send") == 2
        assert a.calls("MPI_Bcast") == 0

    def test_routine_totals_snapshot_is_copy(self):
        a = MPIAccounting()
        a.record("MPI_Send", 1.0)
        snap = a.routine_totals()
        snap["MPI_Send"].total_us = 999.0
        assert a.total_us() == 1.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MPIAccounting().record("MPI_Send", -1.0)

    def test_pickle_round_trip_keeps_rows_and_total(self):
        # mp-shm workers ship their ledgers home by pickle.
        a = MPIAccounting()
        for routine, cost in [("MPI_Send", 0.1), ("MPI_Recv", 0.2),
                              ("MPI_Send", 0.7), ("MPI_Barrier", 1e-3)]:
            a.record(routine, cost)
        b = pickle.loads(pickle.dumps(a))
        assert b.routine_totals() == a.routine_totals()
        assert b.total_us() == a.total_us()
        b.record("MPI_Send", 2.0)
        assert b.calls("MPI_Send") == 3
        assert b.total_us() == a.total_us() + 2.0
