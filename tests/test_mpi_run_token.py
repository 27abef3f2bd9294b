"""The thread backend's run token (DESIGN section 17).

``ThreadBackend.launch`` gives its world one lock; a rank thread holds it
whenever it executes and releases it only inside ``SimWorld.off_token``
(the park seam under both blocking waits, a failed non-blocking poll, and
rank code that sleeps through the helper).  Every rank thread of a launch
is bound to the launcher's CPU.  These tests pin what that buys (no GIL
hand-off convoy, one rank running at a time, no migration at a hand-off)
and what it must not cost (prompt failure, the hard deadline, progress of
poll loops, the launcher's own CPU mask).
"""

import os
import resource
import sys
import threading
import time

import numpy as np
import pytest

from repro.cca import Port
from repro.euler.ports import DriverParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import ComponentFault, FaultPlan
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi import JobSpec, ParallelRunner, SimWorld
from repro.mpi.backend import ThreadBackend
from repro.mpi.network import LOOPBACK
from repro.mpi.runner import RankFailure
from repro.obs import ObsConfig
from repro.perf import make_proxy_port
from repro.perf.monitor import MonitorPort

#: the e2e benchmark's ``amr_bare`` mesh: 3 levels, one mid-run regrid
AMR = CaseStudyConfig(
    params=DriverParams(nx=64, ny=64, max_levels=3, steps=3, regrid_every=2,
                        max_patch_cells=1024),
    flux="efm", nranks=3, instrument=False)


def run(fn, nranks=2, timeout_s=30.0, **kw):
    runner = ParallelRunner(nranks, network=LOOPBACK, timeout_s=timeout_s, **kw)
    return runner.run(fn), runner.last_world


# ------------------------------------------------------------ the count gate
def test_steady_state_amr_run_does_not_convoy():
    """From the 4th run in a process on, three rank threads that all run
    hand the GIL round at every NumPy call: 33k voluntary context switches
    per run at the parent commit, ~2k with one rank running at a time."""
    for _ in range(3):
        run_case_study(AMR)
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
        res = run_case_study(AMR)
        switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - before
        assert res.results == [0, 0, 0]
        assert switches < 6000, switches


# ---------------------------------------------------------- one core, bound
needs_binding = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or not os.path.exists("/proc/thread-self/sched"),
    reason="needs os.sched_setaffinity and /proc/thread-self")


def _migrations():
    """The calling thread's ``se.nr_migrations``."""
    with open("/proc/thread-self/sched") as f:
        for line in f:
            if line.startswith("se.nr_migrations"):
                return int(line.split(":")[1])
    raise AssertionError("no se.nr_migrations in /proc/thread-self/sched")


def _mask(_comm=None):
    return frozenset(os.sched_getaffinity(0))


def _ring(comm):
    """A little deterministic traffic: a ring shift, then a reduction."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    req = comm.irecv(source=left, tag=3)
    comm.isend(comm.rank * 10, right, tag=3)
    got = req.wait()
    return got, comm.allreduce(got + comm.rank)


@needs_binding
def test_every_rank_is_bound_to_one_cpu_of_the_launcher():
    launcher = _mask()
    masks, _ = run(_mask, nranks=3)
    cpu, = masks[0]
    assert masks == [frozenset({cpu})] * 3
    assert cpu in launcher


@needs_binding
def test_binding_leaves_the_launcher_mask_alone():
    launcher = _mask()
    run(_mask, nranks=3)
    assert _mask() == launcher

    def boom(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        return comm.recv(source=1, tag=1)

    with pytest.raises(RankFailure, match="boom on rank 1"):
        run(boom, nranks=3)
    assert _mask() == launcher


@needs_binding
def test_steady_state_amr_ranks_do_not_migrate(monkeypatch):
    """From the 4th run in a process on, a rank thread's migrations between
    its first token acquisition and its exit: ~250 per run unbound on a
    2-core host, none bound."""
    moved = []
    launch = ThreadBackend.launch

    def probed_launch(self, spec, fn, args, kwargs):
        def probed(comm, *a, **kw):
            before = _migrations()  # the rank function runs holding the token
            try:
                return fn(comm, *a, **kw)
            finally:
                moved.append(_migrations() - before)
        return launch(self, spec, probed, args, kwargs)

    monkeypatch.setattr(ThreadBackend, "launch", probed_launch)
    for _ in range(3):
        run_case_study(AMR)
    moved.clear()
    for _ in range(2):
        assert run_case_study(AMR).results == [0, 0, 0]
    assert moved == [0] * 6


@needs_binding
def test_launch_from_a_bound_helper_thread_uses_its_cpu():
    main_mask = _mask()
    c = max(main_mask)
    seen = {}

    def helper():
        os.sched_setaffinity(0, {c})
        seen["ranks"], _ = run(_mask, nranks=3)
        seen["helper"] = _mask()

    t = threading.Thread(target=helper)
    t.start()
    t.join(30.0)
    assert seen["ranks"] == [frozenset({c})] * 3
    assert seen["helper"] == frozenset({c})
    assert _mask() == main_mask


@needs_binding
def test_launch_without_sched_setaffinity_runs_unbound(monkeypatch):
    bound, _ = run(_ring, nranks=3)
    monkeypatch.delattr(os, "sched_setaffinity")
    unbound, _ = run(_ring, nranks=3)
    assert unbound == bound
    assert run(_mask, nranks=3)[0] == [_mask()] * 3


@needs_binding
def test_mpshm_ranks_keep_the_launcher_mask():
    masks, _ = run(_mask, nranks=2, backend="mp-shm")
    assert masks == [_mask()] * 2


# --------------------------------------------------------------- exclusivity
def test_one_rank_runs_between_park_points():
    """A probe raised on entry to and lowered on exit from rank code that
    contains no park point never reads 2, with more ranks than cores and a
    switch interval short enough that unserialised threads would interleave
    inside every section."""
    nranks, rounds = 4, 40
    inside = [0]
    peak = [0]

    def section():
        inside[0] += 1
        a = np.full((48, 48), 0.5)
        for _ in range(8):  # NumPy calls drop the GIL; the loop takes it back
            a = (a @ a) % 1.0
            peak[0] = max(peak[0], inside[0])
        inside[0] -= 1

    def fn(comm):
        right, left = (comm.rank + 1) % nranks, (comm.rank - 1) % nranks
        for k in range(rounds):
            section()
            req = comm.irecv(source=left, tag=k)
            comm.isend(k, right, tag=k)
            section()
            while not req.test():  # a failed poll is a park point too
                section()
            section()
            assert comm.allreduce(1) == nranks
        return peak[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results, _ = run(fn, nranks=nranks)
    finally:
        sys.setswitchinterval(interval)
    assert results == [1] * nranks
    assert inside[0] == 0


# ----------------------------------------------------------- failure is loud
def test_raise_with_peers_parked_fails_promptly():
    def fn(comm):
        if comm.rank == 0:
            with comm.world.off_token(comm.rank):
                time.sleep(0.05)  # let the peers reach their recv and park
            raise ValueError("boom on rank 0")
        return comm.recv(source=0, tag=1)

    t0 = time.monotonic()
    with pytest.raises(RankFailure, match="boom on rank 0") as exc:
        run(fn, nranks=3)
    assert time.monotonic() - t0 < 5.0
    assert list(exc.value.failures) == [0]  # the primary traceback only


def test_raise_with_peers_queued_for_token_fails_promptly():
    def fn(comm):
        if comm.rank == 0:
            for peer in (1, 2):
                comm.send("wake", peer, tag=1)
            time.sleep(0.1)  # bare sleep: the woken peers queue for the token
            raise ValueError("boom on rank 0")
        comm.recv(source=0, tag=1)
        return comm.recv(source=0, tag=2)  # never sent

    t0 = time.monotonic()
    with pytest.raises(RankFailure, match="boom on rank 0") as exc:
        run(fn, nranks=3)
    assert time.monotonic() - t0 < 5.0
    assert list(exc.value.failures) == [0]


def test_abort_reaches_a_rank_queued_for_the_token():
    def fn(comm):
        if comm.rank == 0:
            comm.send("wake", 1, tag=1)
            time.sleep(0.1)  # rank 1 is awake and queued behind us
            comm.world.abort("external abort")
        comm.recv(source=1 - comm.rank, tag=1)
        return comm.recv(source=1 - comm.rank, tag=2)  # never sent

    t0 = time.monotonic()
    with pytest.raises(RankFailure, match="external abort") as exc:
        run(fn)
    assert time.monotonic() - t0 < 5.0  # not the 30 s deadline + join slack
    assert sorted(exc.value.failures) == [0, 1]


# ------------------------------------------------------- who carries a token
def test_only_launched_thread_worlds_carry_a_token():
    by_hand = SimWorld(JobSpec(2))
    assert by_hand.run_token is None
    with by_hand.off_token(0):  # a no-op without a token
        pass

    def fn(comm):
        return type(comm.world).__name__, comm.world.run_token is not None

    assert run(fn)[0] == [("SimWorld", True)] * 2
    assert run(fn, backend="mp-shm")[0] == [("ShmWorld", False)] * 2


# ------------------------------------------------------------- the deadline
def test_deadline_counts_time_queued_for_the_token():
    """``timeout_s`` runs from entry to the wait: a rank whose park timed
    out while a peer held the token fails as soon as it runs again, it does
    not start a fresh deadline."""
    elapsed = {}

    def fn(comm):
        if comm.rank == 0:
            with comm.world.off_token(comm.rank):
                time.sleep(0.05)  # rank 1 enters its recv and parks
            time.sleep(0.6)       # bare sleep holds the token past the deadline
            return None
        t0 = time.monotonic()
        try:
            return comm.recv(source=0, tag=9)  # never sent
        finally:
            elapsed[1] = time.monotonic() - t0

    with pytest.raises(RankFailure, match="timed out after 0.4s"):
        run(fn, timeout_s=0.4)
    assert 0.4 <= elapsed[1] < 0.95  # ~0.65; a restarted deadline gives >= 1.0


# ------------------------------------------------------ polls make progress
@pytest.mark.parametrize("backend", ["thread", "mp-shm"])
def test_spin_polls_complete(backend):
    """``while not req.test()`` and an ``iprobe`` spin used to progress by
    GIL pre-emption; a failed poll now hands the token over."""
    def fn(comm):
        t0 = time.monotonic()
        if comm.rank == 0:  # starts first, so it spins before rank 1 has run
            req = comm.irecv(source=1, tag=1)
            while not req.test():
                pass
            comm.send("pong", 1, tag=2)
            got = req.payload
        else:
            comm.send("ping", 0, tag=1)
            while not comm.iprobe(source=0, tag=2):
                pass
            got = comm.recv(source=0, tag=2)
        return got, time.monotonic() - t0

    results, _ = run(fn, backend=backend)
    assert [got for got, _ in results] == ["ping", "pong"]
    assert max(dt for _, dt in results) < 0.5


# ------------------------------------------- blocking outside repro.mpi
class _WorkPort(Port):
    def work(self):
        raise NotImplementedError


class _Work(_WorkPort):
    def work(self):
        return "done"


class _NullMonitor(MonitorPort):
    def begin_invocation(self, label, method, params):
        return 0

    def end_invocation(self, token):
        pass


def test_injected_component_delay_does_not_freeze_peers():
    """The proxy's injected stall sleeps off the token: the peer runs to
    completion while rank 0 is still stalled."""
    plan = FaultPlan(components=(
        ComponentFault(label="w", kind="delay", delay_us=200_000.0),))
    stamps = {}

    def fn(comm):
        if comm.rank == 0:
            proxy = make_proxy_port(
                _WorkPort, "w", _Work, _NullMonitor,
                fault_getter=lambda: (comm.world, comm.rank))
            assert proxy.work() == "done"
        stamps[comm.rank] = time.monotonic()

    run(fn, injector=FaultInjector(plan, 2))
    assert stamps[1] < stamps[0] - 0.1


# ------------------------------------------------------------ sched stamping
def test_token_queue_time_is_stamped_on_the_wait_span():
    def fn(comm):
        if comm.rank == 0:
            with comm.world.off_token(comm.rank):
                time.sleep(0.05)  # rank 1 parks in its recv
            comm.send("x", 1, tag=1)
            time.sleep(0.1)       # rank 1 is awake but descheduled
            return None
        return comm.recv(source=0, tag=1)

    _, world = run(fn, obs_config=ObsConfig())
    recv, = [s for s in world.obs[1].tracer.spans() if s.name == "MPI_Recv"]
    assert 0.08e6 < recv.attrs["sched_us"] <= recv.duration_us
    _, quiet = run(fn)
    assert quiet.obs is None  # and nothing was timed
