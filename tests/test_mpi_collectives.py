"""Collective operations over the MPI simulator."""

import math

import numpy as np
import pytest

from repro.analysis import SanitizerConfig
from repro.mpi import NetworkModel, ParallelRunner, RankFailure, SimMPIError
from repro.mpi.collectives import COLL_CONTEXT_PREFIX
from repro.mpi.network import LOOPBACK

BACKENDS = ["thread", "mp-shm"]


def run(nranks, fn, **kw):
    return ParallelRunner(nranks, network=LOOPBACK, timeout_s=20.0, **kw).run(fn)


def test_barrier_completes_on_all_ranks(runner3):
    def job(comm):
        comm.barrier()
        return comm.accounting.calls("MPI_Barrier")

    assert runner3.run(job) == [1, 1, 1]


def test_bcast_from_each_root():
    def job(comm):
        out = []
        for root in range(comm.size):
            value = {"root": root} if comm.rank == root else None
            out.append(comm.bcast(value, root=root))
        return out

    for rank_result in run(3, job):
        assert rank_result == [{"root": 0}, {"root": 1}, {"root": 2}]


def test_bcast_array_is_copied_on_receivers():
    def job(comm):
        data = np.arange(4.0) if comm.rank == 0 else None
        got = comm.bcast(data, root=0)
        got[0] = 99.0 + comm.rank  # mutating our copy must not leak
        final = comm.allgather(got[0])
        return final

    out = run(2, job)
    assert out[0] == [99.0, 100.0]


def test_gather_only_root_receives():
    def job(comm):
        return comm.gather(comm.rank * 2, root=1)

    out = run(3, job)
    assert out[0] is None and out[2] is None
    assert out[1] == [0, 2, 4]


def test_allgather_everyone_receives(runner3):
    assert runner3.run(lambda comm: comm.allgather(comm.rank)) == [[0, 1, 2]] * 3


def test_scatter_distributes_items():
    def job(comm):
        items = [f"item{r}" for r in range(comm.size)] if comm.rank == 0 else None
        return comm.scatter(items, root=0)

    assert run(3, job) == ["item0", "item1", "item2"]


def test_scatter_wrong_length_raises():
    def job(comm):
        items = [1] if comm.rank == 0 else None
        return comm.scatter(items, root=0)

    with pytest.raises(Exception):
        run(2, job)


def test_alltoall_transposes():
    def job(comm):
        return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

    out = run(3, job)
    assert out[1] == ["0->1", "1->1", "2->1"]


def test_reduce_sum_and_max():
    def job(comm):
        s = comm.reduce(comm.rank + 1, op="sum", root=0)
        m = comm.allreduce(comm.rank, op="max")
        return (s, m)

    out = run(3, job)
    assert out[0] == (6, 2)
    assert out[1] == (None, 2)


def test_allreduce_ops():
    def job(comm):
        return {
            "sum": comm.allreduce(comm.rank + 1, op="sum"),
            "prod": comm.allreduce(comm.rank + 1, op="prod"),
            "min": comm.allreduce(comm.rank + 1, op="min"),
            "max": comm.allreduce(comm.rank + 1, op="max"),
        }

    for res in run(3, job):
        assert res == {"sum": 6, "prod": 6, "min": 1, "max": 3}


def test_allreduce_custom_op():
    def job(comm):
        return comm.allreduce([comm.rank], op=lambda a, b: a + b)

    assert run(3, job)[0] == [0, 1, 2]


def test_allreduce_ndarray_elementwise():
    def job(comm):
        return comm.allreduce(np.full(3, float(comm.rank)), op="max")

    assert np.array_equal(run(3, job)[2], np.full(3, 2.0))


def test_scan_inclusive_prefix():
    def job(comm):
        return comm.scan(comm.rank + 1, op="sum")

    assert run(3, job) == [1, 3, 6]


def test_dup_isolates_contexts():
    """Messages in the duplicated communicator don't match the parent's."""

    def job(comm):
        dup = comm.dup()
        if comm.rank == 0:
            dup.send("dup-msg", dest=1, tag=0)
            comm.send("world-msg", dest=1, tag=0)
            return None
        world = comm.recv(source=0, tag=0)
        duped = dup.recv(source=0, tag=0)
        return (world, duped)

    assert run(2, job)[1] == ("world-msg", "dup-msg")


def test_nested_dup():
    def job(comm):
        d1 = comm.dup()
        d2 = d1.dup()
        return d2.allreduce(1)

    assert run(3, job) == [3, 3, 3]


def test_invalid_root_rejected():
    def job(comm):
        comm.bcast(1, root=9)

    with pytest.raises(Exception):
        run(2, job)


def test_collective_charges_accounting(runner3):
    def job(comm):
        comm.allreduce(1)
        comm.barrier()
        totals = comm.accounting.routine_totals()
        return set(totals) >= {"MPI_Allreduce", "MPI_Barrier"}

    assert all(runner3.run(job))


# -------------------------------------------- every collective and size
#: no jitter: a ledger row is then exactly the log-tree closed form
NET = NetworkModel(latency_us=7.0, bandwidth_bytes_per_us=4.0,
                   jitter_sigma=0.0)


def _modeled_us(nbytes, p):
    """The cost one collective moving ``nbytes`` charges on ``p`` ranks:
    ``ceil(log2 P)`` stages of one full-payload hop."""
    hop = max(NET.min_cost_us, NET.latency_us + nbytes / NET.bandwidth_bytes_per_us)
    return max(NET.min_cost_us, math.ceil(math.log2(p)) * hop)


def _all_ten(comm):
    p, r = comm.size, comm.rank
    x = np.full(4, float(r + 1))  # 32 bytes
    values = {
        "barrier": comm.barrier(),
        "bcast": comm.bcast(x if r == p - 1 else None, root=p - 1),
        "gather": comm.gather(x, root=p // 2),
        "allgather": comm.allgather(x),
        "scatter": comm.scatter(
            [np.full(3, float(d)) for d in range(p)] if r == p // 2 else None,
            root=p // 2),
        "alltoall": comm.alltoall([np.array([r, d], dtype=float)
                                   for d in range(p)]),
        "reduce": comm.reduce(x, op="sum", root=p - 1),
        "allreduce": comm.allreduce(x, op="max"),
        "scan": comm.scan(x, op="sum"),
        "dup": comm.dup().context,
    }
    ledger = {routine: (row.calls, row.total_us) for routine, row
              in comm.accounting.routine_totals().items()}
    return values, ledger


def _check_every_collective(backend, p):
    """Every collective's values and its one log-tree ledger row on ``p``
    ranks of ``backend``."""
    xs = [np.full(4, float(r + 1)) for r in range(p)]
    nbytes = {"MPI_Barrier": 0, "MPI_Bcast": 32, "MPI_Gather": 32,
              "MPI_Allgather": 32, "MPI_Scatter": 24, "MPI_Alltoall": 16 * p,
              "MPI_Reduce": 32, "MPI_Allreduce": 32, "MPI_Scan": 32,
              "MPI_Comm_dup": 0}
    runner = ParallelRunner(p, network=NET, timeout_s=60.0, backend=backend)
    for r, (got, ledger) in enumerate(runner.run(_all_ten)):
        want = {
            "barrier": None,
            "bcast": xs[p - 1],
            "gather": xs if r == p // 2 else None,
            "allgather": xs,
            "scatter": np.full(3, float(r)),
            "alltoall": [np.array([s, r], dtype=float) for s in range(p)],
            "reduce": sum(xs) if r == p - 1 else None,
            "allreduce": xs[p - 1],
            "scan": sum(xs[:r + 1]),
            "dup": "world/dup1",
        }
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_equal(got[name], want[name], err_msg=name)
        assert ledger.keys() == nbytes.keys()
        for routine, (calls, total_us) in ledger.items():
            assert calls == 1, routine
            assert total_us == pytest.approx(
                _modeled_us(nbytes[routine], p)), routine


@pytest.mark.parametrize("nranks", [1, 2, 3, 5])
@pytest.mark.parametrize("family", [None, "flat", "hier"])
def test_every_collective_under_every_family(family, nranks, refuse_family):
    """A former family is refused; the run every job gets instead charges
    each collective the one log-tree price."""
    refuse_family(family)
    _check_every_collective("thread", nranks)


@pytest.mark.parametrize("backend, nranks", [
    ("mp-shm", p) for p in (1, 2, 3, 5)] + [("thread", 64)])
def test_every_collective(backend, nranks):
    _check_every_collective(backend, nranks)


# ------------------------------------------------------- value semantics
def _leaves(obj):
    """The objects a collective handed back (None contributes none)."""
    if obj is None:
        return []
    return [leaf for item in obj for leaf in _leaves(item)] \
        if isinstance(obj, list) else [obj]


def _every_collective(comm):
    """Run each value-moving collective once on 3 ranks; returns, per
    routine, the result and whether any of its objects is the caller's own
    argument.  Sequences share one object on purpose: a copy of ``[a, a]``
    must still hand two ranks two objects."""
    r = comm.rank
    x = np.full(2, float(r))
    shared = np.full(2, 10.0 + r)
    calls = {
        "allgather": ([x], lambda: comm.allgather(x)),
        "bcast": ([x], lambda: comm.bcast(x, root=1)),
        "gather": ([x], lambda: comm.gather(x, root=1)),
        "scatter": ([shared], lambda: comm.scatter(
            [shared] * comm.size if r == 1 else None, root=1)),
        "alltoall": ([shared], lambda: comm.alltoall([shared] * comm.size)),
        "reduce": ([x], lambda: comm.reduce(x, root=1)),
        "allreduce": ([x], lambda: comm.allreduce(x)),
        "scan": ([x], lambda: comm.scan(x)),
    }
    out = {}
    for name, (args, call) in calls.items():
        result = call()
        out[name] = (result, any(leaf is arg for leaf in _leaves(result)
                                 for arg in args))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", [None, "flat", "hier"])
def test_no_result_aliases_an_argument_or_a_peer(family, backend, refuse_family):
    refuse_family(family)
    results = run(3, _every_collective, backend=backend)
    for r, out in enumerate(results):
        for name, (_, is_argument) in out.items():
            # MPI's one exception: the bcast root keeps its own buffer.
            assert is_argument == (name == "bcast" and r == 1), (r, name)
    if backend == "thread":  # the results are the ranks' own objects
        for name in results[0]:
            ids = [id(leaf) for out in results
                   for leaf in _leaves(out[name][0])]
            assert len(ids) == len(set(ids)), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", [None, "flat", "hier"])
def test_write_to_a_gathered_value_stays_on_its_rank(family, backend, refuse_family):
    refuse_family(family)
    def job(comm):
        got = comm.allgather(np.full(2, float(comm.rank)))
        comm.barrier()
        if comm.rank == 0:
            got[2][:] = -1.0
        comm.barrier()
        return got[2].tolist()

    assert run(3, job, backend=backend) == [
        [-1.0, -1.0], [2.0, 2.0], [2.0, 2.0]]


# ---------------------------------------------------------------- reports
@pytest.mark.parametrize("backend", BACKENDS)
def test_deadlock_report_names_the_collective(backend):
    def job(comm):
        if comm.rank == 0:  # ra: noqa[RA009] — a deadlock on purpose
            comm.recv(source=1, tag=9)
        else:
            comm.allreduce(1)

    with pytest.raises(RankFailure) as exc:
        run(2, job, backend=backend, sanitize=SanitizerConfig())
    text = str(exc.value)
    assert "DeadlockError" in text
    assert ("rank 1 blocked in MPI_Allreduce (collective #0, "
            "context='world', from rank 0)") in text
    assert COLL_CONTEXT_PREFIX not in text


@pytest.mark.parametrize("backend", BACKENDS)
def test_deadline_names_the_collective(backend):
    def job(comm):
        with pytest.raises(SimMPIError) as exc:
            if comm.rank == 0:  # ra: noqa[RA009] — a deadline on purpose
                comm.recv(source=1, tag=9)
            else:
                comm.allreduce(1)
        return str(exc.value)

    texts = ParallelRunner(2, backend=backend, network=LOOPBACK,
                           timeout_s=0.5).run(job)
    assert ("rank 1 timed out after 0.5s in MPI_Allreduce waiting for "
            "(collective #0, context='world', from rank 0)") in texts[1]
    assert "(source=1, tag=9, context='world')" in texts[0]
