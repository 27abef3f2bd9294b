"""Property-based tests for the MPI simulator (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ParallelRunner
from repro.mpi.network import LOOPBACK, NetworkModel
from repro.util.rng import make_rng


def run(nranks, fn):
    return ParallelRunner(nranks, network=LOOPBACK, timeout_s=30.0).run(fn)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(-1000, 1000), min_size=2, max_size=4))
def test_allreduce_sum_matches_local_sum(values):
    nranks = len(values)

    def job(comm):
        return comm.allreduce(values[comm.rank], op="sum")

    assert run(nranks, job) == [sum(values)] * nranks


@settings(max_examples=20, deadline=None)
@given(
    perm=st.permutations(list(range(4))),
    payloads=st.lists(st.integers(), min_size=4, max_size=4),
)
def test_messages_delivered_regardless_of_recv_order(perm, payloads):
    """Rank 1 receives four tagged messages in an arbitrary order."""

    def job(comm):
        if comm.rank == 0:
            for tag, val in enumerate(payloads):
                comm.send(val, dest=1, tag=tag)
            return None
        return [comm.recv(source=0, tag=t) for t in perm]

    out = run(2, job)
    assert out[1] == [payloads[t] for t in perm]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 64), nranks=st.integers(2, 4))
def test_allgather_array_roundtrip(n, nranks):
    def job(comm):
        arr = np.full(n, comm.rank, dtype=float)
        parts = comm.allgather(arr)
        return sum(float(p.sum()) for p in parts)

    expected = float(n * sum(range(nranks)))
    assert run(nranks, job) == [expected] * nranks


@settings(max_examples=15, deadline=None)
@given(
    latency=st.floats(0.0, 1000.0),
    bw=st.floats(0.1, 1000.0),
    nbytes=st.integers(0, 10**7),
)
def test_network_cost_positive_and_finite(latency, bw, nbytes):
    net = NetworkModel(latency_us=latency, bandwidth_bytes_per_us=bw, jitter_sigma=0.0)
    cost = net.base_p2p_cost(nbytes)
    assert np.isfinite(cost) and cost >= net.min_cost_us


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_jitter_deterministic_given_seed(seed):
    net = NetworkModel(jitter_sigma=0.4)
    a = net.sample_jitter(make_rng(seed))
    b = net.sample_jitter(make_rng(seed))
    assert a == b
