"""Ghost-cell exchange: plans, transfers, serial and distributed execution."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.ghost import (ExchangePlan, GhostExchanger, Transfer,
                             execute_transfers,
                             plan_same_level_exchange)
from repro.amr.hierarchy import ghost_strips
from repro.amr.interpolation import prolong
from repro.amr.patch import Patch
from repro.mpi import ParallelRunner
from repro.mpi.network import LOOPBACK


def two_abutting_patches(nghost=2, owners=(0, 0)):
    """Two 4x8 patches side by side along the i axis."""
    a = Patch(box=Box(0, 0, 3, 7), level=0, nghost=nghost, owner=owners[0])
    b = Patch(box=Box(4, 0, 7, 7), level=0, nghost=nghost, owner=owners[1])
    for p, val in ((a, 1.0), (b, 2.0)):
        p.allocate(["f"], fill=np.nan)
        p.interior("f")[...] = val
    return a, b


class TestPlan:
    def test_abutting_patches_exchange_strips(self):
        a, b = two_abutting_patches()
        plan = plan_same_level_exchange([a, b])
        # each patch receives from the other
        dsts = {(t.src_patch.uid, t.dst_patch.uid) for t in plan}
        assert dsts == {(a.uid, b.uid), (b.uid, a.uid)}
        for t in plan:
            # only ghost cells of dst, only interior of src
            assert t.src_patch.box.contains_box(t.src_region)
            assert not t.dst_patch.box.contains_box(t.dst_region)

    def test_disjoint_patches_no_plan(self):
        a = Patch(box=Box(0, 0, 3, 3), level=0, nghost=1)
        b = Patch(box=Box(10, 10, 13, 13), level=0, nghost=1)
        assert plan_same_level_exchange([a, b]) == []

    def test_plan_deterministic_order(self):
        a, b = two_abutting_patches()
        p1 = plan_same_level_exchange([a, b])
        p2 = plan_same_level_exchange([b, a])
        assert [(t.src_patch.uid, t.dst_patch.uid, t.src_region) for t in p1] == \
               [(t.src_patch.uid, t.dst_patch.uid, t.src_region) for t in p2]


class TestLocalExecution:
    def test_ghosts_filled_with_neighbor_interior(self):
        a, b = two_abutting_patches()
        plan = plan_same_level_exchange([a, b])
        cost = execute_transfers(plan, ["f"], comm=None)
        assert cost == 0.0
        # b's low-i ghost rows hold a's value
        assert np.all(b.data("f")[:2, 2:-2] == 1.0)
        assert np.all(a.data("f")[-2:, 2:-2] == 2.0)

    def test_transform_applied_at_source(self):
        coarse = Patch(box=Box(0, 0, 3, 3), level=0, nghost=0)
        coarse.allocate(["f"])
        coarse.interior("f")[...] = np.arange(16.0).reshape(4, 4)
        fine = Patch(box=Box(0, 0, 7, 7), level=1, nghost=0)
        fine.allocate(["f"])
        t = Transfer(
            src_patch=coarse, dst_patch=fine,
            src_region=Box(0, 0, 3, 3), dst_region=Box(0, 0, 7, 7),
            transform=lambda b: prolong(b, 2),
        )
        execute_transfers([t], ["f"], comm=None)
        assert np.all(fine.data("f")[:2, :2] == 0.0)
        assert np.all(fine.data("f")[6:, 6:] == 15.0)

    def test_shape_mismatch_rejected(self):
        a, b = two_abutting_patches()
        bad = Transfer(src_patch=a, dst_patch=b,
                       src_region=Box(2, 0, 3, 7), dst_region=Box(4, 0, 4, 7))
        with pytest.raises(ValueError, match="shape"):
            execute_transfers([bad], ["f"], comm=None)


class TestDistributedExecution:
    def test_matches_serial_result(self):
        # Serial reference
        sa, sb = two_abutting_patches()
        execute_transfers(plan_same_level_exchange([sa, sb]), ["f"], comm=None)

        def job(comm):
            a, b = two_abutting_patches(owners=(0, 1))
            plan = plan_same_level_exchange([a, b])
            cost = execute_transfers(plan, ["f"], comm, rank=comm.rank)
            mine = a if comm.rank == 0 else b
            return (mine.data("f").copy(), cost)

        out = ParallelRunner(2, network=LOOPBACK, timeout_s=20.0).run(job)
        ra, ca = out[0]
        rb, cb = out[1]
        assert np.array_equal(np.nan_to_num(ra, nan=-1),
                              np.nan_to_num(sa.data("f"), nan=-1))
        assert np.array_equal(np.nan_to_num(rb, nan=-1),
                              np.nan_to_num(sb.data("f"), nan=-1))
        assert ca > 0 and cb > 0  # both ranks paid modeled MPI time

    def test_exchanger_tags_advance_consistently(self):
        def job(comm):
            ex = GhostExchanger(comm=comm)
            a, b = two_abutting_patches(owners=(0, 1))
            plan = ExchangePlan(plan_same_level_exchange([a, b]))
            ex.run(plan, ["f"])
            # second exchange must not collide with the first
            ex.run(plan, ["f"])
            mine = a if comm.rank == 0 else b
            return np.isnan(mine.interior("f")).any()

        out = ParallelRunner(2, network=LOOPBACK, timeout_s=20.0).run(job)
        assert out == [False, False]


class TestGhostStrips:
    def test_full_frame_coverage(self):
        box = Box(2, 2, 5, 5)
        clip = Box(0, 0, 9, 9)
        strips = ghost_strips(box, 2, clip)
        cells = sum(s.ncells for s in strips)
        assert cells == box.grow(2).ncells - box.ncells
        for s in strips:
            assert s.intersection(box) is None  # no interior overlap

    def test_clipped_at_domain_edge(self):
        box = Box(0, 0, 3, 3)
        clip = Box(0, 0, 9, 9)
        strips = ghost_strips(box, 2, clip)
        for s in strips:
            assert clip.contains_box(s)

    def test_zero_ghost_empty(self):
        assert ghost_strips(Box(0, 0, 3, 3), 0, Box(0, 0, 9, 9)) == []
