"""SimWorld internals: abort, collectives bookkeeping, mailbox accounting."""

import threading

import numpy as np
import pytest

from repro.mpi import JobSpec, ParallelRunner, SimComm, SimMPIError, SimWorld
from repro.mpi.message import Envelope
from repro.mpi.network import LOOPBACK


def make_world(nranks=2, timeout_s=2.0):
    return SimWorld(JobSpec(nranks, network=LOOPBACK, timeout_s=timeout_s))


@pytest.fixture
def parked(monkeypatch):
    """Set the first time a rank parks on the world: the announce bit that
    orders an abort after the rank it must wake is asleep."""
    event = threading.Event()
    park = SimWorld._park

    def announcing_park(self, rank, cond, wait_s):
        event.set()
        park(self, rank, cond, wait_s)

    monkeypatch.setattr(SimWorld, "_park", announcing_park)
    return event


def _abort_wakes(parked, blocking):
    """Park rank 0 in ``blocking(comm)``, abort, and return what it raised.

    The abort takes the parked rank's condition to notify it, which the
    rank releases only inside its wait, so the wake-up cannot be lost."""
    world = make_world(timeout_s=30.0)
    comm = SimComm(world, 0)
    errors = []

    def blocked():
        try:
            blocking(comm)
        except SimMPIError as exc:
            errors.append(str(exc))

    t = threading.Thread(target=blocked, daemon=True)
    t.start()
    assert parked.wait(timeout=5.0)
    world.abort("test abort")
    t.join(timeout=5.0)
    assert not t.is_alive()
    return errors


class TestAbort:
    def test_abort_wakes_blocked_receiver(self, parked):
        errors = _abort_wakes(parked, lambda comm: comm.recv(source=1))
        assert errors and "aborted" in errors[0]

    def test_abort_wakes_rank_parked_in_collective(self, parked):
        errors = _abort_wakes(parked, lambda comm: comm.allreduce(1))
        assert errors and "aborted" in errors[0]

    def test_operations_after_abort_raise(self):
        world = make_world()
        world.abort("gone")
        comm = SimComm(world, 0)
        with pytest.raises(SimMPIError, match="aborted"):
            comm.recv(source=1)

    def test_aborted_flag(self):
        world = make_world()
        assert not world.aborted
        world.abort("x")
        assert world.aborted


class TestMailbox:
    def test_pending_count(self):
        world = make_world()
        c0 = SimComm(world, 0)
        assert world.pending_count(c0.context, 1) == 0
        c0.send("hello", dest=1)
        assert world.pending_count(c0.context, 1) == 1
        SimComm(world, 1).recv(source=0)
        assert world.pending_count(c0.context, 1) == 0

    def test_delivery_to_invalid_rank_rejected(self):
        world = make_world()
        env = Envelope(source=0, dest=7, tag=0, payload=None, nbytes=0, cost_us=1.0)
        with pytest.raises(ValueError, match="invalid destination"):
            world.deliver("world", env)

    def test_try_match_nonblocking(self):
        world = make_world()
        assert world.try_match("world", 0, -1, -1) is None


class TestCollectiveSlots:
    """A collective's slots are its two tags in the mailbox's transport
    context: every hop addressed to a rank is consumed inside the
    collective, so nothing stays behind."""

    @pytest.mark.parametrize("backend", ["thread", "mp-shm"])
    def test_no_envelope_left_after_mixed_collectives(self, backend):
        def fn(comm):
            for k in range(4):
                comm.barrier()
                comm.bcast(np.full(2, float(k)), root=k % comm.size)
                comm.allreduce(np.ones(2))
                comm.allgather([comm.rank, k])
                comm.scatter(list(range(comm.size))
                             if comm.rank == 1 else None, root=1)
            return comm.world.leftover_envelopes(comm.rank)

        # 4 rounds x 5 collectives = 20
        assert ParallelRunner(3, backend=backend, timeout_s=20.0).run(fn) \
            == [[], [], []]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimWorld(JobSpec(0))
        with pytest.raises(ValueError):
            SimWorld(JobSpec(2, timeout_s=0.0))
        with pytest.raises(ValueError):
            SimComm(make_world(), 5)
