"""Backend conformance: the mp-shm process backend must reproduce the
thread backend bit-for-bit on everything the modeled world determines.

The contract (DESIGN.md section 11): identical results, identical
per-rank MPI ledgers (``MPI_Waitsome``'s total included; only its call
count, the *grouping* of completions, follows wall-clock arrival order),
identical resilience counters, identical sanitizer findings, and
identical fault-injection schedules.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizerConfig
from repro.euler.ports import DriverParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, MessageFault, canned_plans
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi import RankFailure, create_world
from repro.obs import ObsConfig

BACKENDS = ("thread", "mp-shm")


def ledger(world, rank):
    """(total_us, calls) per routine, rounded; ``MPI_Waitsome``'s calls
    follow arrival order, so only its total is kept."""
    return {k: (round(v.total_us, 3),
                None if k == "MPI_Waitsome" else v.calls)
            for k, v in world.accounting[rank].routine_totals().items()}


def mixed_traffic(comm):
    """P2p ring + collectives, with NumPy and object payloads."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.send(np.arange(64, dtype=np.float64) * comm.rank, dest=nxt, tag=1)
    arr = comm.recv(source=prv, tag=1)
    comm.send({"rank": comm.rank, "tag": "obj"}, dest=nxt, tag=2)
    obj = comm.recv(source=prv, tag=2)
    comm.barrier()
    root_val = comm.bcast({"seed": 42} if comm.rank == 0 else None, root=0)
    total = comm.allreduce(float(arr.sum()))
    gathered = comm.allgather(comm.rank * 2)
    reduced = comm.reduce(comm.rank + 1, root=min(1, comm.size - 1))
    return (float(arr.sum()), obj["rank"], root_val["seed"], total,
            tuple(gathered), reduced)


def run_job(backend, fn, nranks=4, **kw):
    world = create_world(backend, nranks=nranks, seed=11, **kw)
    results = world.run(fn)
    return results, world.last_world


@pytest.mark.parametrize("family", [None, "flat", "hier"])
def test_mixed_traffic_identical(family, refuse_family):
    refuse_family(family)
    res_t, world_t = run_job("thread", mixed_traffic)
    res_p, world_p = run_job("mp-shm", mixed_traffic)
    assert res_t == res_p
    for r in range(4):
        assert ledger(world_t, r) == ledger(world_p, r), f"rank {r} ledger"


def test_sanitized_run_identical_and_clean():
    san = SanitizerConfig()
    res_t, world_t = run_job("thread", mixed_traffic, sanitize=san)
    res_p, world_p = run_job("mp-shm", mixed_traffic, sanitize=san)
    assert res_t == res_p
    assert world_t.sanitizer.findings == []
    assert world_p.sanitizer.findings == []


def test_obs_tracing_identical_span_counts():
    cfg = ObsConfig()
    _, world_t = run_job("thread", mixed_traffic, obs_config=cfg)
    _, world_p = run_job("mp-shm", mixed_traffic, obs_config=cfg)
    for r in range(4):
        ot, op = world_t.obs[r], world_p.obs[r]
        spans_t = sorted(s.name for s in ot.tracer.spans())
        spans_p = sorted(s.name for s in op.tracer.spans())
        assert spans_t == spans_p, f"rank {r} span names"
        assert len(ot.tracer.flows()) == len(op.tracer.flows())


def drop_then_recover(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for i in range(6):
        comm.send((comm.rank, i), dest=nxt, tag=10 + i)
    got = [comm.recv(source=prv, tag=10 + i) for i in range(6)]
    return got


def _drop_plan():
    return FaultPlan(name="test-drops", seed=3, messages=(
        MessageFault(kind="drop", source=0, index=1, count=2,
                     recoverable=True),
        MessageFault(kind="drop", source=2, index=3, count=1,
                     recoverable=True),
    ))


def test_fault_recovery_identical():
    plan = _drop_plan()
    policy = ResiliencePolicy()
    outs = {}
    for backend in BACKENDS:
        inj = FaultInjector(plan, 3)
        world = create_world(backend, nranks=3, seed=5, injector=inj,
                             policy=policy)
        results = world.run(drop_then_recover)
        outs[backend] = (results, world.last_world)
    res_t, world_t = outs["thread"]
    res_p, world_p = outs["mp-shm"]
    assert res_t == res_p
    assert world_t.injector.total_counts() == world_p.injector.total_counts()
    assert (world_t.injector.schedule_signature()
            == world_p.injector.schedule_signature())
    assert world_t.injector.total_counts().get("mpi.recovered") == 3
    assert sum(w.calls("MPI_Retransmit") for w in world_t.accounting) == 3
    for r in range(3):
        assert (world_t.resilience[r].as_dict()
                == world_p.resilience[r].as_dict()), r
        assert ledger(world_t, r) == ledger(world_p, r), f"rank {r} ledger"


def test_scmd_case_study_bitwise_identical():
    """The headline acceptance check: the full instrumented case study —
    sanitizers on, faults injected, resilience recovering — produces
    bit-identical field data and measurement structure on both backends."""
    plan = canned_plans()["dropped-messages"]

    def run(backend):
        return run_case_study(CaseStudyConfig(
            params=DriverParams(nx=48, ny=48, steps=2, max_patch_cells=1024),
            nranks=3, seed=7, backend=backend,
            sanitize=SanitizerConfig(strict=False),
            fault_plan=plan, resilience=ResiliencePolicy(),
        ))

    ra, rb = run("thread"), run("mp-shm")
    for r in range(3):
        ha, hb = ra.extras[r], rb.extras[r]
        assert pickle.dumps(ha.mesh_state) == pickle.dumps(hb.mesh_state)
        assert ha.dt_history == hb.dt_history
        assert sorted(ha.records) == sorted(hb.records)
        assert ledger(ra.world, r) == ledger(rb.world, r)
        assert ha.resilience == hb.resilience
    fa = sorted((f.kind, f.rank) for f in ra.world.sanitizer.findings)
    fb = sorted((f.kind, f.rank) for f in rb.world.sanitizer.findings)
    assert fa == fb
    assert (ra.world.injector.schedule_signature()
            == rb.world.injector.schedule_signature())


def boom(comm):
    if comm.rank == 2:
        raise ValueError("kaboom on 2")
    comm.barrier()
    return comm.rank


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_failure_propagates(backend):
    world = create_world(backend, nranks=3, timeout_s=60.0)
    with pytest.raises(RankFailure) as ei:
        world.run(boom)
    assert set(ei.value.failures) == {2}
    assert "kaboom on 2" in str(ei.value)


def mutual_recv(comm):
    # Ranks 0 and 1 both receive first: a true deadlock.
    return comm.recv(source=1 - comm.rank, tag=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_true_deadlock_detected(backend):
    world = create_world(
        backend, nranks=2, timeout_s=30.0,
        sanitize=SanitizerConfig(deadlock_poll_s=0.05))
    with pytest.raises(RankFailure) as ei:
        world.run(mutual_recv)
    assert "DeadlockError" in str(ei.value) or "deadlock" in str(ei.value)


def test_unknown_backend_rejected():
    for name in ("bogus", "mpi4py"):
        with pytest.raises(ValueError, match=name):
            create_world(name, nranks=2)


def test_worldview_surface():
    _, world = run_job("mp-shm", mixed_traffic, nranks=3)
    assert world.nranks == 3
    assert world.leftover_envelopes(0) == []
    assert len(world.accounting) == 3


def test_mp_shm_sees_real_processes():
    pid_here = os.getpid()
    world = create_world("mp-shm", nranks=2)
    pids = world.run(lambda comm: os.getpid())
    assert len(set(pids)) == 2
    assert pid_here not in pids
