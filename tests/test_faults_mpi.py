"""MPI-layer fault injection and recovery (drops, duplicates, delays, stalls)."""

import time

import pytest

from repro.cca.ports import Port
from repro.faults.injector import FaultInjector, TransientComponentError
from repro.faults.plan import (DELAY, DROP, DUPLICATE, ComponentFault,
                               FaultPlan, MessageFault, RankStall)
from repro.faults.policy import CommFailure, ResiliencePolicy, ResilienceStats
from repro.mpi.request import waitall, waitany, waitsome
from repro.mpi.runner import ParallelRunner, RankFailure
from repro.mpi.world import SimMPIError, SimWorld
from repro.obs import ObsConfig
from repro.perf.monitor import MonitorPort
from repro.perf.proxy import make_proxy_port

POLICY = ResiliencePolicy()
BACKENDS = ["thread", "mp-shm"]


def run_with(plan: FaultPlan | None, fn, nranks: int = 2,
             policy: ResiliencePolicy | None = POLICY, timeout_s: float = 20.0,
             **runner_kw):
    injector = FaultInjector(plan, nranks) if plan is not None else None
    runner = ParallelRunner(nranks, seed=0, timeout_s=timeout_s,
                            injector=injector, policy=policy, **runner_kw)
    results = runner.run(fn)
    return results, runner.last_world


def drop_first_send_plan(recoverable: bool = True) -> FaultPlan:
    return FaultPlan(messages=(
        MessageFault(kind=DROP, source=0, index=0, count=1,
                     recoverable=recoverable),))


# ------------------------------------------------------------ drop+recover
def test_dropped_message_is_recovered():
    def fn(comm):
        if comm.rank == 0:
            comm.send({"x": 41}, 1, tag=5)
            return None
        return comm.recv(source=0, tag=5)

    results, world = run_with(drop_first_send_plan(), fn)
    assert results[1] == {"x": 41}
    assert world.resilience[1].recovered == 1
    assert world.resilience[1].retry_rounds == 1
    assert world.accounting[1].calls("MPI_Retransmit") == 1
    assert world.accounting[1].routine_totals()["MPI_Retransmit"].total_us == 500.0
    counts = world.injector.total_counts()
    assert counts["fault.drop"] == 1
    assert counts["mpi.recovered"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovered_message_keeps_send_order(backend):
    """The retransmission sits in the mailbox at its send seq: a later
    message on the same (source, tag) cannot overtake it."""
    def fn(comm):
        if comm.rank == 0:
            comm.send("first", 1, tag=1)
            comm.send("second", 1, tag=1)
            return None
        return [comm.recv(source=0, tag=1), comm.recv(source=0, tag=1)]

    results, world = run_with(drop_first_send_plan(), fn, backend=backend)
    assert results[1] == ["first", "second"]
    assert world.resilience[1].recovered == 1


def test_recovery_through_nonblocking_waits():
    def fn(comm):
        if comm.rank == 0:
            reqs = [comm.isend(k, 1, tag=k) for k in range(3)]
            waitall(reqs)
            return None
        reqs = [comm.irecv(source=0, tag=k) for k in range(3)]
        got = set()
        while len(got) < 3:
            got.update(waitsome(reqs))
        return sorted(reqs[i].payload for i in range(3))

    plan = FaultPlan(messages=(MessageFault(kind=DROP, source=0, index=1,
                                            count=1),))
    results, world = run_with(plan, fn)
    assert results[1] == [0, 1, 2]
    assert world.resilience[1].recovered == 1


def test_unrecoverable_drop_raises_typed_failure():
    def fn(comm):
        if comm.rank == 0:
            comm.send("gone", 1, tag=9)
            return None
        return comm.recv(source=0, tag=9)

    with pytest.raises(RankFailure, match="unrecoverably dropped"):
        run_with(drop_first_send_plan(recoverable=False), fn)


def test_unrecoverable_drop_in_wait_raises_typed_failure():
    def fn(comm):
        if comm.rank == 0:
            comm.isend("gone", 1, tag=3)
            return None
        req = comm.irecv(source=0, tag=3)
        return waitall([req])

    with pytest.raises(RankFailure, match="unrecoverably dropped"):
        run_with(drop_first_send_plan(recoverable=False), fn)


def test_drop_without_policy_deadlocks_with_plain_timeout():
    """Non-resilient semantics are preserved: no retries, ordinary timeout."""
    def fn(comm):
        if comm.rank == 0:
            comm.send("lost", 1)
            return None
        return comm.recv(source=0)

    with pytest.raises(RankFailure) as exc:
        run_with(drop_first_send_plan(), fn, policy=None, timeout_s=0.5)
    assert "SimMPIError" in str(exc.value)
    assert "CommFailure" not in str(exc.value)


# ------------------------------------------- every blocking entry point
def _via_request(wait):
    def entry(comm):
        reqs = [comm.irecv(source=0, tag=5)]
        wait(reqs)
        return reqs[0].payload
    return entry


def _probe_then_recv(comm):
    comm.probe(source=0, tag=5)
    return comm.recv(source=0, tag=5)


def _poll(comm, done):
    """Spin on ``done()`` like a program's poll loop, bounded like a
    blocking op (at most 2 s) so a loop that never completes fails."""
    bound = min(2.0, comm.world.timeout_s)
    deadline = time.monotonic() + bound
    while not done():
        if time.monotonic() >= deadline:
            raise SimMPIError(f"poll loop not completed after {bound}s")


def _test_loop(comm):
    req = comm.irecv(source=0, tag=5)
    _poll(comm, req.test)
    return req.payload


def _iprobe_loop(comm):
    _poll(comm, lambda: comm.iprobe(source=0, tag=5))
    return comm.recv(source=0, tag=5)


#: receiver side of every operation that can block on a mailbox, each
#: written to return the payload of the (source=0, tag=5) message
BLOCKING_ENTRIES = {
    "recv": lambda comm: comm.recv(source=0, tag=5),
    "probe+recv": _probe_then_recv,
    "sendrecv": lambda comm: comm.sendrecv("ack", dest=0, sendtag=6,
                                           source=0, recvtag=5),
    "Request.wait": lambda comm: comm.irecv(source=0, tag=5).wait(),
    "waitany": _via_request(waitany),
    "waitsome": _via_request(waitsome),
    "waitall": _via_request(waitall),
    "Request.test loop": _test_loop,
    "iprobe loop": _iprobe_loop,
}


def _drop_then_enter(entry):
    """Rank 0's first send is dropped; its second ("go") is delivered after
    the drop record, so rank 1 enters the blocking op with the record
    already deposited on every backend."""
    def fn(comm):
        if comm.rank == 0:
            comm.send({"x": 41}, 1, tag=5)
            comm.send("go", 1, tag=9)
            return None
        comm.recv(source=0, tag=9)
        return entry(comm)
    return fn


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", BLOCKING_ENTRIES)
class TestEveryBlockingEntryPoint:
    def test_recoverable_drop_is_recovered(self, entry, backend):
        results, world = run_with(
            drop_first_send_plan(), _drop_then_enter(BLOCKING_ENTRIES[entry]),
            backend=backend)
        assert results[1] == {"x": 41}
        assert world.resilience[1].recovered == 1
        assert world.accounting[1].calls("MPI_Retransmit") == 1

    def test_tombstone_raises_typed_failure(self, entry, backend):
        with pytest.raises(RankFailure, match="unrecoverably dropped") as exc:
            run_with(drop_first_send_plan(recoverable=False),
                     _drop_then_enter(BLOCKING_ENTRIES[entry]),
                     backend=backend)
        assert "CommFailure" in str(exc.value)

    def test_drop_without_policy_is_a_plain_timeout(self, entry, backend):
        with pytest.raises(RankFailure) as exc:
            run_with(drop_first_send_plan(),
                     _drop_then_enter(BLOCKING_ENTRIES[entry]),
                     policy=None, timeout_s=0.3, backend=backend)
        assert "SimMPIError" in str(exc.value)
        assert "CommFailure" not in str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_deposited_drop_is_recovered_without_parking(backend, monkeypatch):
    """Recovery needs evidence, not a round: a receive entered with the
    drop already in the mailbox completes without ever blocking."""
    parks = []
    park = SimWorld._park

    def counting_park(self, rank, cond, wait_s):
        parks.append(rank)
        park(self, rank, cond, wait_s)

    monkeypatch.setattr(SimWorld, "_park", counting_park)

    def fn(comm):
        if comm.rank == 0:
            comm.send({"x": 41}, 1, tag=5)
            comm.send("go", 1, tag=9)
            return None
        comm.recv(source=0, tag=9)
        before = parks.count(1)
        got = comm.recv(source=0, tag=5)
        return got, parks.count(1) - before

    results, world = run_with(drop_first_send_plan(), fn, backend=backend)
    assert results[1] == ({"x": 41}, 0)
    assert world.resilience[1].recovered == 1


@pytest.mark.parametrize("entry", ["recv", "waitall"])
def test_one_hard_deadline_from_entry(entry):
    """Under a policy a silent peer fails the op at the one hard deadline,
    ``timeout_s`` counted from entry, as the plain timeout."""
    elapsed = {}

    def fn(comm):
        if comm.rank == 0:
            return None
        t0 = time.monotonic()
        try:
            BLOCKING_ENTRIES[entry](comm)
        finally:
            elapsed[entry] = time.monotonic() - t0

    with pytest.raises(RankFailure, match="timed out after 0.5s") as exc:
        run_with(FaultPlan(), fn, timeout_s=0.5)
    assert "SimMPIError" in str(exc.value)
    assert elapsed[entry] < 0.9


# --------------------------------------------------------------- duplicate
def test_duplicate_is_deduplicated_under_policy():
    def fn(comm):
        if comm.rank == 0:
            comm.send("first", 1, tag=1)
            comm.send("second", 1, tag=1)
            return None
        return [comm.recv(source=0, tag=1), comm.recv(source=0, tag=1)]

    plan = FaultPlan(messages=(MessageFault(kind=DUPLICATE, source=0,
                                            index=0, count=1),))
    results, world = run_with(plan, fn)
    assert results[1] == ["first", "second"]
    assert world.resilience[1].deduplicated == 1
    assert world.injector.total_counts()["fault.duplicate"] == 1


def test_duplicate_without_policy_is_a_spurious_message():
    def fn(comm):
        if comm.rank == 0:
            comm.send("first", 1, tag=1)
            comm.send("second", 1, tag=1)
            return None
        return [comm.recv(source=0, tag=1) for _ in range(3)]

    plan = FaultPlan(messages=(MessageFault(kind=DUPLICATE, source=0,
                                            index=0, count=1),))
    results, _ = run_with(plan, fn, policy=None)
    assert results[1] == ["first", "first", "second"]


def test_probe_then_recv_does_not_misfire_dedup():
    """Probing pops and re-delivers; the re-delivery must not be discarded."""
    def fn(comm):
        if comm.rank == 0:
            comm.send("payload", 1, tag=2)
            return None
        comm.probe(source=0, tag=2)
        assert comm.iprobe(source=0, tag=2)
        return comm.recv(source=0, tag=2)

    results, _ = run_with(FaultPlan(), fn)
    assert results[1] == "payload"


# ------------------------------------------------------------ delay+stall
def test_delay_fault_inflates_modeled_cost():
    def fn(comm):
        if comm.rank == 0:
            comm.send(b"x" * 1000, 1, tag=0)
            return None
        comm.recv(source=0, tag=0)
        return comm.accounting.routine_totals()["MPI_Recv"].total_us

    plan = FaultPlan(messages=(MessageFault(kind=DELAY, source=0, index=0,
                                            count=1, delay_factor=10.0,
                                            delay_us=5000.0),))
    faulty, _ = run_with(plan, fn)
    clean, _ = run_with(None, fn, policy=None)
    assert faulty[1] > clean[1] + 5000.0 - 1e-6


def test_stall_charges_extra_modeled_time_to_one_rank():
    def fn(comm):
        comm.barrier()
        return comm.accounting.total_us()

    plan = FaultPlan(stalls=(RankStall(rank=1, extra_us=250_000.0,
                                       index=0, count=1),))
    results, world = run_with(plan, fn, nranks=3)
    # Only the stalled rank carries the extra 250 ms of modeled time; the
    # healthy ranks' barrier costs are jitter-sized (well under 10 ms).
    assert results[1] >= 250_000.0
    assert max(results[0], results[2]) < 10_000.0
    assert world.injector.total_counts()["fault.stall"] == 1


# ------------------------------------------------------------- collectives
def test_collectives_complete_under_policy():
    def fn(comm):
        total = comm.allreduce(comm.rank)
        gathered = comm.allgather(comm.rank * 10)
        comm.barrier()
        return (total, gathered)

    results, world = run_with(FaultPlan(), fn, nranks=3)
    assert results == [(3, [0, 10, 20])] * 3
    assert all(s.failures == 0 for s in world.resilience)


def test_collective_abandonment_raises_comm_failure():
    """A rank that never joins a collective: under a policy the others
    fail at the one hard deadline with a typed, booked failure, on every
    backend, while a point-to-point receive's deadline stays the plain
    timeout.  Both ranks catch their failure, so an mp-shm job still meets
    in its final barrier and reports what each rank booked."""
    def fn(comm):
        world = comm.world
        if comm.rank == 0:  # ra: noqa[RA009] — the peer abandons the collective on purpose
            with pytest.raises(SimMPIError, match="timed out after 0.5s"):
                comm.recv(source=1, tag=7)
        else:
            with pytest.raises(CommFailure, match=(
                    r"MPI_Allreduce waiting for \(collective #0, "
                    r"context='world', from rank 0\) incomplete after 0.5s")):
                comm.allreduce(1)
        return (world.resilience[comm.rank].failures,
                world.injector.counts[comm.rank].get("mpi.failure", 0))

    for backend in BACKENDS:  # one test id, kept across both backends
        results, _ = run_with(FaultPlan(), fn, timeout_s=0.5, backend=backend)
        assert results == [(0, 0), (1, 1)], backend


def test_collective_retry_rounds_reach_observability():
    """A slow peer under a policy is no failure: the collective waits it
    out and nothing is booked, counted or stamped for it."""
    def fn(comm):
        if comm.rank == 0:
            with comm.world.off_token(comm.rank):
                time.sleep(0.2)
        return comm.allreduce(1)

    results, world = run_with(None, fn, obs_config=ObsConfig())
    assert results == [2, 2]
    assert world.resilience == [ResilienceStats()] * 2
    for rank in range(2):
        names = {name for name, _, _ in world.obs[rank].metrics.series()}
        assert not {n for n in names if "retry" in n or "failure" in n}
    stalled, = [s for s in world.obs[1].tracer.spans()
                if s.name == "MPI_Allreduce"]
    assert "retry_us" not in stalled.attrs


class _WorkPort(Port):
    def work(self):
        raise NotImplementedError


class _NullMonitor(MonitorPort):
    def begin_invocation(self, label, method, params):
        return 0

    def end_invocation(self, token):
        pass


def test_every_failure_is_booked_three_ways():
    """A collective's typed failure and a component failure that outlasts
    its retries each count in ResilienceStats, on the fault timeline and
    in the obs registry - one booking seam for every resilience event."""
    plan = FaultPlan(components=(
        ComponentFault(label="w", kind="raise", index=0, count=2),))

    def booked(world, rank):
        return (world.resilience[rank].as_dict(), world.injector.counts[rank],
                {name: inst.value
                 for name, _, inst in world.obs[rank].metrics.series()
                 if "failure" in name or "retries" in name})

    def fn(comm):
        if comm.rank == 0:
            proxy = make_proxy_port(
                _WorkPort, "w", lambda: None, _NullMonitor,
                fault_getter=lambda: (comm.world, comm.rank))
            with pytest.raises(TransientComponentError, match="persisted"):
                proxy.work()
            return booked(comm.world, 0)
        with pytest.raises(CommFailure, match="incomplete"):
            comm.allreduce(1)
        return booked(comm.world, 1)

    results, _ = run_with(plan, fn, policy=ResiliencePolicy(max_attempts=2),
                          timeout_s=0.5, obs_config=ObsConfig())
    (stats0, marks0, counters0), (stats1, marks1, counters1) = results
    assert stats0["component_retries"] == 1 and stats0["failures"] == 1
    assert marks0["component.retry"] == marks0["component.failure"] == 1
    assert counters0 == {"component_retries_total": 1.0,
                         "component_failures_total": 1.0}
    assert stats1["failures"] == 1
    assert marks1["mpi.failure"] == 1
    assert counters1 == {"mpi_comm_failures_total": 1.0}


# ------------------------------------------------------------- determinism
def test_injected_schedule_is_reproducible_across_runs():
    plan = FaultPlan(seed=9, messages=(
        MessageFault(kind=DROP, index=1, count=2),
        MessageFault(kind=DELAY, probability=0.5, index=0, count=50,
                     delay_us=10.0),
    ))

    def fn(comm):
        peer = 1 - comm.rank
        out = []
        for k in range(8):
            comm.send(k, peer, tag=k)
        for k in range(8):
            out.append(comm.recv(source=peer, tag=k))
        return out

    sigs = []
    for _ in range(2):
        results, world = run_with(plan, fn)
        assert results[0] == results[1] == list(range(8))
        sigs.append(world.injector.schedule_signature())
    assert sigs[0] == sigs[1]
    assert sum(len(s) for s in sigs[0]) > 0
