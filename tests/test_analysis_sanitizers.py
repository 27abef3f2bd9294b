"""Runtime sanitizer tests: each failure family is deliberately provoked
and the diagnostic must name the guilty ranks/ops, not just "error"."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.ghost import Transfer, execute_transfers
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
#: Every collective family runs the order check through the one
#: ``SimComm._collective`` body: piggybacked through the rendezvous (None,
#: "flat") or as a token round before the tree movement ("hier").  The
#: family is a loop variable, not a pytest parameter, so the tests keep
#: their names.
FAMILIES = (None, "flat", "hier")


def test_mismatched_collectives_are_reported_by_name():
    def fn(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(comm.rank)

    for family in FAMILIES:
        # A mismatch that got past the token round would run two different
        # trees against each other and hang to the deadline: keep it short.
        with pytest.raises(RankFailure) as exc:
            _runner(2, collectives=family, timeout_s=5.0).run(fn)
        text = str(exc.value)
        assert "CollectiveMismatchError" in text, family
        assert "rank 0 issued MPI_Barrier" in text, family
        assert "rank 1 issued MPI_Allreduce" in text, family
        assert "collective #0 on context 'world'" in text, family


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
    # Rank 0's barrier #0 rendezvouses with rank 1's allreduce #0.
    assert "MPI_Barrier" in text and "MPI_Allreduce" in text


def test_matched_collectives_are_clean():
    def fn(comm):
        comm.barrier()
        total = comm.allreduce(comm.rank + 1)
        comm.barrier()
        return total, comm.bcast(comm.rank, root=2)

    for family in FAMILIES:
        runner = _runner(3, collectives=family)
        assert runner.run(fn) == [(6, 2)] * 3, family
        assert runner.last_world.sanitizer.findings == [], family


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


def test_ghost_guard_flags_write_under_outstanding_recv():
    san = Sanitizer(1, SanitizerConfig())
    guard = san.ghost_guard(0)
    patch = _patch(Box(0, 0, 7, 7), owner=0, fill=1.0)
    region = Box(0, 0, 3, 3)
    guard.watch_recv(patch, region, ["rho"], tag=9)
    patch.view("rho", region)[...] = 99.0  # the race
    patch.mark_written()
    with pytest.raises(GhostRaceError) as exc:
        guard.check_recv(9)
    msg = str(exc.value)
    assert f"patch uid={patch.uid}" in msg
    assert "nonblocking receive tag=9" in msg
    assert "version 0 -> 1" in msg


def test_ghost_guard_flags_write_under_outstanding_send():
    san = Sanitizer(1, SanitizerConfig())
    guard = san.ghost_guard(0)
    patch = _patch(Box(0, 0, 7, 7), owner=0, fill=1.0)
    region = Box(4, 4, 7, 7)
    guard.watch_send(patch, region, ["rho"], tag=2)
    patch.view("rho", region)[...] = -1.0
    patch.mark_written()
    with pytest.raises(GhostRaceError) as exc:
        guard.check_sends()
    assert "nonblocking send tag=2" in str(exc.value)


def test_ghost_guard_clean_exchange_passes():
    san = Sanitizer(1, SanitizerConfig())
    guard = san.ghost_guard(0)
    patch = _patch(Box(0, 0, 7, 7), owner=0, fill=1.0)
    guard.watch_send(patch, Box(0, 0, 3, 3), ["rho"], tag=0)
    guard.watch_recv(patch, Box(4, 4, 7, 7), ["rho"], tag=1)
    guard.check_recv(1)
    guard.check_sends()
    assert san.findings == []


def test_overlapping_transfer_plan_races_through_execute_transfers():
    """Two transfers landing on overlapping regions of one destination
    patch: the first insert dirties the second's watched region mid-drain,
    which is exactly the write-after-write the phased exchanges avoid."""
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
