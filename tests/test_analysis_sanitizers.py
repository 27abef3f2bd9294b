"""Runtime sanitizer tests: each failure family is deliberately provoked
and the diagnostic must name the guilty ranks/ops, not just "error"."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.ghost import Transfer, execute_transfers, plan_same_level_exchange
from repro.amr.patch import Patch
from repro.analysis import (GhostRaceError, Sanitizer, SanitizerConfig)
from repro.mpi.runner import ParallelRunner, RankFailure
from repro.mpi.world import ANY_SOURCE


def _runner(nranks, **kw):
    kw.setdefault("sanitize", SanitizerConfig())
    kw.setdefault("timeout_s", 30.0)
    return ParallelRunner(nranks, **kw)


# ------------------------------------------------------------------ deadlock
def test_two_rank_recv_cycle_is_named():
    def fn(comm):
        # Classic head-to-head: both ranks receive before either sends.
        comm.recv(source=1 - comm.rank, tag=7)
        comm.send(comm.rank, dest=1 - comm.rank, tag=7)

    with pytest.raises(RankFailure) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    assert "DeadlockError" in text
    assert "deadlock detected among ranks [0, 1]" in text
    assert "blocked in MPI_Recv" in text
    assert "tag=7" in text
    # The cycle walk must name both hops.
    assert "rank 0" in text and "rank 1" in text


def test_three_rank_cycle_is_named():
    def fn(comm):
        comm.recv(source=(comm.rank + 1) % 3, tag=0)

    with pytest.raises(RankFailure) as exc:
        _runner(3).run(fn)
    assert "deadlock detected among ranks [0, 1, 2]" in str(exc.value)


def test_wait_on_never_sent_irecv_deadlocks_with_pending_ops():
    from repro.mpi.request import waitall

    def fn(comm):
        if comm.rank == 0:
            waitall([comm.irecv(source=1, tag=3)])
        else:
            waitall([comm.irecv(source=0, tag=4)])

    with pytest.raises(RankFailure) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    assert "blocked in MPI_Wait" in text
    assert "pending recv(s)" in text
    assert "tag=3" in text or "tag=4" in text


def test_no_false_positive_on_any_source_fan_in():
    """ANY_SOURCE waits on everyone: one live sender must clear it."""
    def fn(comm):
        if comm.rank == 0:
            return (comm.recv(source=ANY_SOURCE, tag=1)
                    + comm.recv(source=ANY_SOURCE, tag=1))
        comm.send(comm.rank * 10, dest=0, tag=1)
        return None

    out = _runner(3).run(fn)
    assert out[0] == 30


def test_healthy_pingpong_is_clean():
    def fn(comm):
        if comm.rank == 0:
            comm.send("ping", dest=1, tag=2)
            return comm.recv(source=1, tag=3)
        msg = comm.recv(source=0, tag=2)
        comm.send(msg + "/pong", dest=0, tag=3)
        return msg

    runner = _runner(2)
    assert runner.run(fn)[0] == "ping/pong"
    assert runner.last_world.sanitizer.findings == []


# ------------------------------------------------- collective order checking
#: Every backend runs the order check through the one
#: ``SimComm._collective`` body: the token rides inside the value the
#: collective's tree moves.  The backend is a loop variable, not a pytest
#: parameter, so the tests keep their names.
BACKENDS = ("thread", "mp-shm")


def test_mismatched_collectives_are_reported_by_name():
    def fn(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(comm.rank)

    for backend in BACKENDS:
        # A mismatch the token check missed would leave the ranks waiting
        # on each other to the deadline: keep it short.
        with pytest.raises(RankFailure) as exc:
            _runner(2, backend=backend, timeout_s=5.0).run(fn)
        text = str(exc.value)
        assert "CollectiveMismatchError" in text, backend
        assert "rank 0 issued MPI_Barrier" in text, backend
        assert "rank 1 issued MPI_Allreduce" in text, backend
        assert "collective #0 on context 'world'" in text, backend


def test_collective_drift_after_divergent_branch():
    """Both ranks reach a barrier, but rank 1 ran an extra collective
    first: indices diverge and the first divergent op is reported."""
    def fn(comm):
        if comm.rank == 1:
            comm.allreduce(1)  # extra op only on rank 1
        comm.barrier()
        comm.barrier()

    with pytest.raises(RankFailure) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    # Rank 0's barrier #0 meets rank 1's allreduce #0 in one tree.
    assert "MPI_Barrier" in text and "MPI_Allreduce" in text


def test_matched_collectives_are_clean():
    def fn(comm):
        comm.barrier()
        total = comm.allreduce(comm.rank + 1)
        comm.barrier()
        return total, comm.bcast(comm.rank, root=2)

    for backend in BACKENDS:
        runner = _runner(3, backend=backend)
        assert runner.run(fn) == [(6, 2)] * 3, backend
        assert runner.last_world.sanitizer.findings == [], backend


# ------------------------------------------------------- finalize-time leaks
def test_leaked_recv_request_is_reported():
    from repro.analysis import LeakError

    def fn(comm):
        if comm.rank == 1:
            comm.irecv(source=0, tag=77)  # never matched, never waited

    with pytest.raises(LeakError) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    assert "rank 1" in text
    assert "leaked RecvRequest" in text
    assert "(source=0, tag=77)" in text


def test_unconsumed_envelope_is_reported():
    from repro.analysis import LeakError

    def fn(comm):
        if comm.rank == 0:
            comm.send([1, 2, 3], dest=1, tag=5)  # buffered; rank 1 ignores it

    with pytest.raises(LeakError) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    assert "rank 1" in text
    assert "unconsumed Envelope" in text
    assert "from rank 0 tag=5" in text


def test_leaks_only_recorded_when_not_strict():
    def fn(comm):
        if comm.rank == 0:
            comm.send("x", dest=1, tag=5)

    runner = _runner(2, sanitize=SanitizerConfig(strict=False))
    runner.run(fn)  # must not raise
    kinds = runner.last_world.sanitizer.findings_by_kind()
    assert kinds == {"unconsumed-envelope": 1}


# ------------------------------------------------------- p2p type stability
def test_channel_type_instability_warns_but_never_raises():
    def fn(comm):
        if comm.rank == 0:
            comm.send(41, dest=1, tag=1)
            comm.send(np.zeros(4), dest=1, tag=1)
        else:
            comm.recv(source=0, tag=1)
            comm.recv(source=0, tag=1)

    runner = _runner(2)  # strict=True: warnings still must not raise
    runner.run(fn)
    findings = runner.last_world.sanitizer.findings
    assert [f.kind for f in findings] == ["p2p-type-instability"]
    assert "carried int before but now ndarray[float64,1d]" in findings[0].message
    assert "tag=1" in findings[0].message


# ------------------------------------------------------------- ghost races
def _patch(box, owner, fill, nghost=0):
    p = Patch(box=box, level=0, owner=owner, nghost=nghost)
    p.allocate(["rho"], fill)
    return p


def test_overlapping_transfer_plan_races_through_execute_transfers():
    """Two transfers landing on overlapping regions of one destination
    patch leave the overlap to whichever arrives last: exactly the
    write-after-write the phased exchanges avoid."""
    def fn(comm):
        src1 = _patch(Box(0, 0, 3, 3), owner=0, fill=1.0)
        src2 = _patch(Box(2, 0, 5, 3), owner=0, fill=2.0)
        dst = _patch(Box(0, 0, 7, 7), owner=1, fill=0.0)
        transfers = [
            Transfer(src_patch=src1, dst_patch=dst,
                     src_region=Box(0, 0, 3, 3), dst_region=Box(0, 0, 3, 3)),
            Transfer(src_patch=src2, dst_patch=dst,
                     src_region=Box(2, 0, 5, 3), dst_region=Box(2, 0, 5, 3)),
        ]
        execute_transfers(transfers, ["rho"], comm, comm.rank, tag_base=0)

    with pytest.raises(RankFailure) as exc:
        _runner(2).run(fn)
    text = str(exc.value)
    assert "GhostRaceError" in text
    assert "ghost-region race" in text
    assert "nonblocking receive" in text


def test_disjoint_transfer_plan_is_clean():
    def fn(comm):
        src = _patch(Box(0, 0, 3, 3), owner=0, fill=1.0)
        dst = _patch(Box(0, 0, 7, 7), owner=1, fill=0.0)
        transfers = [Transfer(src_patch=src, dst_patch=dst,
                              src_region=Box(0, 0, 3, 3),
                              dst_region=Box(0, 0, 3, 3))]
        execute_transfers(transfers, ["rho"], comm, comm.rank, tag_base=0)
        if comm.rank == 1:
            assert float(dst.view("rho", Box(1, 1, 2, 2)).sum()) == 4.0

    runner = _runner(2)
    runner.run(fn)
    assert runner.last_world.sanitizer.findings == []


def _overlap_plan(local):
    """Rank 1 inserts transfers 0 and 1 into ``dst`` over ``[2:3,0:3]``;
    transfer 1 is a local copy when ``local``, else a second receive.
    Transfer 2 sends a block of ``dst`` back to rank 0, so rank 1 also has
    a message to post.  Returns ``(transfers, dst)``."""
    src1 = _patch(Box(0, 0, 3, 3), owner=0, fill=1.0)
    src2 = _patch(Box(2, 0, 5, 3), owner=1 if local else 0, fill=2.0)
    dst = _patch(Box(0, 0, 7, 7), owner=1, fill=0.0)
    back = _patch(Box(0, 0, 7, 7), owner=0, fill=0.0)
    return [
        Transfer(src_patch=src1, dst_patch=dst,
                 src_region=Box(0, 0, 3, 3), dst_region=Box(0, 0, 3, 3)),
        Transfer(src_patch=src2, dst_patch=dst,
                 src_region=Box(2, 0, 5, 3), dst_region=Box(2, 0, 5, 3)),
        Transfer(src_patch=dst, dst_patch=back,
                 src_region=Box(4, 4, 7, 7), dst_region=Box(4, 4, 7, 7)),
    ], dst


def _raise_on_rank_1(comm, transfers, dst):
    """Run the plan; rank 1 must raise before it copies or posts anything.
    It then stands in for its half by hand (receive rank 0's bundle, send
    transfer 2's block), so rank 0's exchange completes and nothing leaks.
    Rank 1 returns ``(message, isends posted, dst untouched, dst uid)``."""
    posted = []
    isend = comm.isend

    def counted(*args, **kwargs):
        posted.append(kwargs.get("tag"))
        return isend(*args, **kwargs)

    comm.isend = counted
    if comm.rank == 0:
        execute_transfers(transfers, ["rho"], comm, comm.rank, tag_base=0)
        return None
    with pytest.raises(GhostRaceError) as exc:
        execute_transfers(transfers, ["rho"], comm, comm.rank, tag_base=0)
    untouched = not dst.block.any()
    comm.recv(source=0, tag=0)
    comm.send(np.zeros(16), dest=0, tag=2)
    return str(exc.value), posted, untouched, dst.uid


@pytest.mark.parametrize("backend", ["thread", "mp-shm"])
def test_overlapping_receives_are_reported_before_any_isend(backend):
    def fn(comm):
        return _raise_on_rank_1(comm, *_overlap_plan(local=False))

    runner = _runner(2, backend=backend)
    message, posted, untouched, uid = runner.run(fn)[1]
    assert posted == [] and untouched
    assert message == (
        f"ghost-region race: patch uid={uid} region=[2:3,0:3] "
        "fields=['rho'] is written by both nonblocking receive tag=0 and "
        "nonblocking receive tag=1 of one exchange: whichever lands last wins")
    assert runner.last_world.sanitizer.findings_by_kind() == {"ghost-race": 1}


def test_local_copy_overlapping_a_receive_is_reported():
    """The local copy runs before any receive is posted, so a watch on
    the receive's region could never see it: only the plan can."""
    def fn(comm):
        return _raise_on_rank_1(comm, *_overlap_plan(local=True))

    message, posted, untouched, uid = _runner(2).run(fn)[1]
    assert posted == [] and untouched
    assert message.startswith(
        f"ghost-region race: patch uid={uid} region=[2:3,0:3] fields=['rho'] "
        "is written by both nonblocking receive tag=0 and local copy tag=1")


def test_write_to_a_sent_region_after_isend_does_not_reach_the_receiver():
    """What a peer receives is a snapshot taken when the send is posted
    (the bundle is packed into a fresh buffer, and ``isend`` copies its
    payload besides), so a later write to the source region changes
    nothing the peer sees: nothing is left to guard on the send side."""
    names = ["rho", "E"]

    def fn(comm, perturb):
        patches = [Patch(box=Box(0, 0, 7, 7), level=0, owner=0),
                   Patch(box=Box(0, 8, 7, 15), level=0, owner=1)]
        block = patches[comm.rank].allocate(names)
        block[...] = np.arange(block.size).reshape(block.shape) + 1000 * comm.rank
        plan = plan_same_level_exchange(patches)
        isend = comm.isend

        def write_after(buf, dest, tag):
            req = isend(buf, dest=dest, tag=tag)
            if perturb:
                for t in plan:
                    if t.src_patch.owner == comm.rank:
                        t.src_patch.block[t.src_slices] = -1.0
            return req

        comm.isend = write_after
        execute_transfers(plan, names, comm, comm.rank, tag_base=0)
        return [t.dst_patch.block[t.dst_slices].copy() for t in plan
                if t.dst_patch.owner == comm.rank]

    clean = _runner(2).run(fn, False)
    written = _runner(2).run(fn, True)
    for before, after in zip(clean, written):
        assert len(before) == len(after) == 1
        np.testing.assert_array_equal(before[0], after[0])


# ------------------------------------------------------------- observability
def test_findings_emit_metrics_counter():
    from repro.obs.runtime import ObsConfig

    def fn(comm):
        if comm.rank == 0:
            comm.send("x", dest=1, tag=5)  # never received -> leak finding

    runner = _runner(2, sanitize=SanitizerConfig(strict=False),
                     obs_config=ObsConfig())
    runner.run(fn)
    world = runner.last_world
    assert world.sanitizer.findings_by_kind() == {"unconsumed-envelope": 1}
    counter = world.obs[1].metrics.counter(
        "sanitizer_findings_total", kind="unconsumed-envelope")
    assert counter.value == 1


# ------------------------------------------------------------- configuration
def test_config_validation():
    with pytest.raises(ValueError):
        SanitizerConfig(deadlock_poll_s=0.0)
    with pytest.raises(ValueError):
        SanitizerConfig(history=1)


def test_sanitizer_off_by_default():
    runner = ParallelRunner(2)
    runner.run(lambda comm: comm.barrier())
    assert runner.last_world.sanitizer is None
