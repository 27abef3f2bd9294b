"""SimWorld internals: abort, collectives bookkeeping, mailbox accounting."""

import threading

import pytest

from repro.mpi import JobSpec, SimComm, SimMPIError, SimWorld
from repro.mpi.message import Envelope
from repro.mpi.network import LOOPBACK


def make_world(nranks=2, timeout_s=2.0):
    return SimWorld(JobSpec(nranks, network=LOOPBACK, timeout_s=timeout_s))


class TestAbort:
    def test_abort_wakes_blocked_receiver(self):
        world = make_world(timeout_s=30.0)
        comm = SimComm(world, 0)
        errors = []

        def blocked():
            try:
                comm.recv(source=1)
            except SimMPIError as exc:
                errors.append(str(exc))

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        import time

        time.sleep(0.05)
        world.abort("test abort")
        t.join(timeout=5.0)
        assert not t.is_alive()
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
    def test_double_deposit_detected(self):
        import time

        world = make_world(timeout_s=5.0)
        # Rank 0 deposits into slot seq=0 on a thread (blocks waiting for
        # rank 1); a second rank-0 deposit into the same slot is the sign
        # of mismatched collective ordering and must be rejected.
        t = threading.Thread(
            target=lambda: world.exchange("world", 0, 0, "first"), daemon=True
        )
        t.start()
        time.sleep(0.05)
        with pytest.raises(SimMPIError, match="deposited twice"):
            world.exchange("world", 0, 0, "second")
        # release the blocked thread by completing the collective
        world.exchange("world", 0, 1, "peer")
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_slot_freed_after_all_read(self):
        world = make_world()
        results = {}

        def participant(rank):
            results[rank] = world.exchange("world", 0, rank, rank * 10)

        threads = [threading.Thread(target=participant, args=(r,), daemon=True)
                   for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert results == {0: [0, 10], 1: [0, 10]}
        assert world._coll_slots == {}

    def test_collective_timeout_reports_arrivals(self):
        world = make_world(timeout_s=0.3)
        with pytest.raises(SimMPIError, match="1/2 ranks arrived"):
            world.exchange("world", 0, 0, None)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimWorld(JobSpec(0))
        with pytest.raises(ValueError):
            SimWorld(JobSpec(2, timeout_s=0.0))
        with pytest.raises(ValueError):
            SimComm(make_world(), 5)
