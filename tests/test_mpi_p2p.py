"""Point-to-point communication over the MPI simulator."""

import numpy as np
import pytest

from repro.mpi import (ANY_SOURCE, ANY_TAG, ParallelRunner,
                       Status, waitall, waitany, waitsome)
from repro.mpi.network import LOOPBACK


def run(nranks, fn, **kw):
    return ParallelRunner(nranks, network=LOOPBACK, timeout_s=20.0, **kw).run(fn)


def test_send_recv_roundtrip(runner3):
    def job(comm):
        if comm.rank == 0:
            comm.send({"x": 1}, dest=1, tag=3)
            return None
        if comm.rank == 1:
            return comm.recv(source=0, tag=3)
        return None

    assert run(3, job)[1] == {"x": 1}


def test_numpy_payload_value_semantics():
    """Mutating the array after send must not affect the received copy."""

    def job(comm):
        if comm.rank == 0:
            arr = np.arange(5.0)
            comm.send(arr, dest=1)
            arr[:] = -1.0
            return None
        return comm.recv(source=0)

    out = run(2, job)
    assert np.array_equal(out[1], np.arange(5.0))


def test_any_source_any_tag_and_status():
    def job(comm):
        if comm.rank == 0:
            st = Status()
            payload = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
            return (payload, st.Get_source(), st.Get_tag(), st.Get_count() > 0)
        comm.send(f"from{comm.rank}", dest=0, tag=comm.rank * 10)
        return None

    out = run(2, job)
    payload, source, tag, has_bytes = out[0]
    assert payload == "from1" and source == 1 and tag == 10 and has_bytes


def test_fifo_ordering_per_source_tag():
    """MPI non-overtaking rule for a matching (source, tag) pair."""

    def job(comm):
        if comm.rank == 0:
            for i in range(10):
                comm.send(i, dest=1, tag=7)
            return None
        return [comm.recv(source=0, tag=7) for _ in range(10)]

    assert run(2, job)[1] == list(range(10))


def test_tag_selectivity():
    def job(comm):
        if comm.rank == 0:
            comm.send("a", dest=1, tag=1)
            comm.send("b", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run(2, job)[1] == ("a", "b")


def test_sendrecv_exchange():
    def job(comm):
        other = 1 - comm.rank
        return comm.sendrecv(comm.rank, dest=other, sendtag=0,
                             source=other, recvtag=0)

    assert run(2, job) == [1, 0]


def test_irecv_test_polls_without_blocking():
    def job(comm):
        if comm.rank == 1:
            req = comm.irecv(source=0, tag=9)
            # Nothing sent yet on first poll round is possible; spin on test.
            while not req.test():
                pass
            return req.payload
        comm.send("late", dest=1, tag=9)
        return None

    assert run(2, job)[1] == "late"


def test_waitsome_returns_completed_indices():
    def job(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(source=1, tag=t) for t in (0, 1, 2)]
            got = set()
            while len(got) < 3:
                for i in waitsome(reqs):
                    got.add(reqs[i].payload)
            return got
        for t in (0, 1, 2):
            comm.send(t * 100, dest=0, tag=t)
        return None

    assert run(2, job)[0] == {0, 100, 200}


def test_waitall_completes_everything():
    def job(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(source=1, tag=t) for t in range(4)]
            reqs.append(comm.isend("x", dest=1, tag=99))
            waitall(reqs)
            return [r.payload for r in reqs[:4]]
        comm.recv(source=0, tag=99)
        for t in range(4):
            comm.send(t, dest=0, tag=t)
        return None

    # Note rank1 receives the isend'd message first, then sends 4.
    assert run(2, job)[0] == [0, 1, 2, 3]


def test_waitany_returns_single_index():
    def job(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(source=1, tag=5)]
            idx = waitany(reqs)
            return (idx, reqs[0].payload)
        comm.send("only", dest=0, tag=5)
        return None

    assert run(2, job)[0] == (0, "only")


def test_send_to_invalid_rank_raises():
    def job(comm):
        comm.send(1, dest=5)

    with pytest.raises(Exception):
        run(2, job)


def test_recv_deadlock_times_out():
    def job(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=0)  # never sent
        return None

    runner = ParallelRunner(2, network=LOOPBACK, timeout_s=1.0)
    with pytest.raises(Exception) as exc_info:
        runner.run(job)
    assert "deadlock" in str(exc_info.value) or "timed out" in str(exc_info.value)


def test_waitsome_charges_accounting():
    """A drain split over two Waitsome calls costs what one call would:
    the largest transfer cost among its requests, once, whichever of a
    cheap and an expensive message comes first.  Rank 1 sends its second
    message only after rank 0's first Waitsome returned."""
    for first, second in ((8, 4096), (4096, 8)):
        def job(comm):
            if comm.rank == 1:
                comm.send(np.zeros(first // 8), dest=0, tag=0)
                comm.recv(source=0, tag=9)
                comm.send(np.zeros(second // 8), dest=0, tag=1)
                return None
            reqs = [comm.irecv(source=1, tag=t) for t in (0, 1)]
            assert waitsome(reqs) == [0]
            comm.send("go", dest=1, tag=9)
            assert waitsome(reqs) == [1]
            return ([r.cost_us for r in reqs],
                    comm.accounting.routine_totals()["MPI_Waitsome"])

        costs, row = run(2, job)[0]
        assert row.calls == 2 and costs[0] != costs[1]
        assert row.total_us == pytest.approx(max(costs), rel=1e-12)
