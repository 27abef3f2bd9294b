"""Compiled transfer plans: lifecycle, reference equality, block storage.

The nested ``Box.intersection`` loops below are the planning code the
hierarchy ran on every call before plans were compiled; they stay here as
the reference the vectorised, cached plans must reproduce — same patches,
same regions, same order (the order fixes the message tags).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import ghost
from repro.amr.box import Box, box_array, pairwise_overlaps
from repro.amr.ghost import ExchangePlan, Transfer, execute_transfers
from repro.amr.hierarchy import GridHierarchy, ghost_strips
from repro.amr.interpolation import prolong, restrict
from repro.amr.patch import Patch
from repro.faults.checkpoint import (hierarchy_state, hierarchy_states_equal,
                                     restore_hierarchy)
from repro.mpi import ParallelRunner
from repro.mpi.network import LOOPBACK
from repro.util.rng import make_rng

FIELDS = ["rho", "mx"]


def two_front_ic(X, Y):
    return {"rho": np.where(X < 0.5, 1.0, 4.0) + 0.2 * np.sin(9 * Y),
            "mx": np.where(Y < 0.3, 0.0, 2.0) * X}


def make_hierarchy(comm=None):
    h = GridHierarchy(Box(0, 0, 31, 31), FIELDS, comm=comm, max_levels=3,
                      max_patch_cells=256, min_width=4)
    h.init_level0(blocks=(2, 2))
    h.fill(0, two_front_ic)
    return h


# ------------------------------------------------------ reference planners
def signature(transfers):
    return [(t.src_patch.uid, t.dst_patch.uid, t.src_region, t.dst_region)
            for t in transfers]


def ref_same_level(patches):
    ordered = sorted(patches, key=lambda p: p.uid)
    out = []
    for dst in ordered:
        gbox = dst.box.grow(dst.nghost)
        for src in ordered:
            if src.uid == dst.uid:
                continue
            overlap = gbox.intersection(src.box)
            if overlap is None or dst.box.contains_box(overlap):
                continue
            out.append((src.uid, dst.uid, overlap, overlap))
    return out


def ref_prolong(h, targets, src_level, dst_level):
    power = h.r ** (dst_level - src_level)
    out = []
    for fp, region in targets:
        cov = region.coarsen(power)
        for cp in h.levels[src_level]:
            ov_c = cov.intersection(cp.box)
            if ov_c is None:
                continue
            dst = ov_c.refine(power).intersection(region)
            if dst is not None:
                out.append((cp.uid, fp.uid, ov_c, dst))
    return out


def ref_ghost_plans(h, level):
    lbox = h.level_box(level)
    strips = [(fp, s) for fp in h.levels[level]
              for s in ghost_strips(fp.box, h.nghost, lbox)]
    return ([ref_prolong(h, strips, src, level) for src in range(level)]
            + [ref_same_level(h.levels[level])])


def ref_sync(h, level):
    out = []
    for cp in h.levels[level]:
        fine_span = cp.box.refine(h.r)
        for fp in h.levels[level + 1]:
            ov_f = fine_span.intersection(fp.box)
            if ov_f is not None:
                out.append((fp.uid, cp.uid, ov_f, ov_f.coarsen(h.r)))
    return out


def assert_plans_fresh(h):
    """Every plan the hierarchy would execute now equals a fresh build and
    names only patches that are in the hierarchy now."""
    current = {id(p) for level in h.levels for p in level}
    for lev in range(h.max_levels):
        plans = h.ghost_plans(lev)
        assert [signature(p) for p in plans] == ref_ghost_plans(h, lev)
        if lev + 1 < h.max_levels and h.levels[lev + 1]:
            plans = plans + [h.sync_plan(lev)]
            assert signature(plans[-1]) == ref_sync(h, lev)
        for plan in plans:
            for t in plan:
                assert id(t.src_patch) in current and id(t.dst_patch) in current


# --------------------------------------------------------------- lifecycle
def test_cached_plans_equal_fresh_ones_through_init_regrid_restore():
    h = make_hierarchy()
    assert_plans_fresh(h)
    for _ in range(2):
        h.regrid()
        for lev in range(1, h.max_levels):
            h.fill(lev, two_front_ic)
        assert_plans_fresh(h)
    assert all(h.levels), "the scenario must refine to every level"

    # A change confined to level 1 data: the next regrid keeps the level-1
    # boxes (level-0 flags are untouched) and moves only level 2.
    boxes1 = [p.box for p in h.levels[1]]
    boxes2 = [p.box for p in h.levels[2]]
    for p in h.levels[1]:
        rho = p.interior("rho")
        rho[: rho.shape[0] // 2, :] = 9.0
    h.regrid()
    assert [p.box for p in h.levels[1]] == boxes1
    assert [p.box for p in h.levels[2]] != boxes2
    assert_plans_fresh(h)

    twin = GridHierarchy(Box(0, 0, 31, 31), FIELDS, max_levels=3,
                         max_patch_cells=256, min_width=4)
    twin.init_level0(blocks=(2, 2))
    twin.ghost_plans(0)  # compiled for the patches restore will replace
    restore_hierarchy(twin, hierarchy_state(h))
    assert_plans_fresh(twin)
    for lev in range(h.max_levels):
        assert ([signature(p) for p in twin.ghost_plans(lev)]
                == [signature(p) for p in h.ghost_plans(lev)])


def test_set_level_drops_only_plans_that_read_the_level():
    h = make_hierarchy()
    h.regrid()
    h.regrid()
    ghost_before = [h.ghost_plans(lev) for lev in range(3)]
    sync_before = [h.sync_plan(0), h.sync_plan(1)]

    moved = [Patch(box=p.box, level=2, owner=p.owner, nghost=p.nghost,
                   uid=1000 + k) for k, p in enumerate(h.levels[2][:-1])]
    for p in moved:
        p.allocate(FIELDS)
    h.set_level(2, moved)

    assert h.ghost_plans(0) is ghost_before[0]
    assert h.ghost_plans(1) is ghost_before[1]
    assert h.sync_plan(0) is sync_before[0]
    assert h.ghost_plans(2) is not ghost_before[2]
    assert h.sync_plan(1) is not sync_before[1]
    assert_plans_fresh(h)


def test_executed_plans_are_never_stale(monkeypatch):
    executed = []
    real = ghost.execute_transfers

    def spy(transfers, *args, **kwargs):
        executed.append(transfers)
        return real(transfers, *args, **kwargs)

    monkeypatch.setattr(ghost, "execute_transfers", spy)
    h = make_hierarchy()
    for _ in range(3):
        h.regrid()
        del executed[:]  # a regrid itself legitimately reads the old level
        for lev in range(h.max_levels):
            h.ghost_update(lev)
        for lev in (1, 0):
            h.sync_down(lev)
        current = {id(p) for level in h.levels for p in level}
        assert executed
        for plan in executed:
            for t in plan:
                assert id(t.src_patch) in current and id(t.dst_patch) in current


# ------------------------------------------------------- count-based gate
def test_steady_state_ghost_updates_do_no_planning(monkeypatch):
    """N ghost updates between regrids: one plan build, then no box
    algebra at all.  Counts, not timings, so it cannot flake."""
    calls = {"plan": 0, "intersection": 0}
    real_plan = ghost.plan_same_level_exchange
    real_intersection = Box.intersection

    def counting_plan(patches):
        calls["plan"] += 1
        return real_plan(patches)

    def counting_intersection(self, other):
        calls["intersection"] += 1
        return real_intersection(self, other)

    monkeypatch.setattr(ghost, "plan_same_level_exchange", counting_plan)
    monkeypatch.setattr(Box, "intersection", counting_intersection)

    h = make_hierarchy()
    h.regrid()
    h.regrid()
    levels = [lev for lev in range(h.max_levels) if h.levels[lev]]
    assert len(levels) == 3
    for lev in levels:
        h.ghost_update(lev)  # first use after the regrid may compile
    h.sync_down(1)
    h.sync_down(0)
    calls["plan"] = calls["intersection"] = 0
    tag = h.exchanger._tag
    for _ in range(5):
        for lev in levels:
            h.ghost_update(lev)
        h.sync_down(1)
        h.sync_down(0)
    assert calls == {"plan": 0, "intersection": 0}
    # ... while every exchange still drew its tags from the full plans
    per_round = (sum(max(len(p), 1) for lev in levels for p in h.ghost_plans(lev))
                 + max(len(h.sync_plan(1)), 1) + max(len(h.sync_plan(0)), 1))
    assert h.exchanger._tag == tag + 5 * per_round


def test_one_plan_build_per_level_per_decomposition(monkeypatch):
    built = []
    real_plan = ghost.plan_same_level_exchange

    def counting_plan(patches):
        built.append(tuple(sorted(p.uid for p in patches)))
        return real_plan(patches)

    monkeypatch.setattr(ghost, "plan_same_level_exchange", counting_plan)
    h = make_hierarchy()
    for _ in range(3):
        h.regrid()
        for _ in range(3):
            for lev in range(h.max_levels):
                h.ghost_update(lev)
    assert len(built) == len(set(built)), "a level's plan was built twice"


# --------------------------------------------- the pairwise-overlap helper
def box_lists(max_size=7):
    box = st.builds(
        lambda i0, j0, di, dj: Box(i0, j0, i0 + di, j0 + dj),
        st.integers(-6, 6), st.integers(-6, 6),
        st.integers(0, 5), st.integers(0, 5))
    return st.lists(box, min_size=0, max_size=max_size)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(box_lists(), box_lists())
def test_pairwise_overlaps_matches_nested_intersection_loops(a, b):
    # Coordinates in a small window: touching, nested, equal and disjoint
    # pairs all occur often.
    expected = [(i, j, ov) for i, x in enumerate(a) for j, y in enumerate(b)
                if (ov := x.intersection(y)) is not None]
    ia, ib, overlap = pairwise_overlaps(box_array(a), box_array(b))
    got = [(i, j, Box(*ov)) for i, j, ov in
           zip(ia.tolist(), ib.tolist(), overlap.tolist())]
    assert got == expected
    assert overlap.shape == (len(expected), 4)


def test_pairwise_overlaps_corner_cases():
    a = [Box(0, 0, 3, 3)]
    b = [Box(4, 0, 7, 3),    # abuts: no shared cell
         Box(3, 3, 5, 5),    # shares exactly the corner cell
         Box(1, 1, 2, 2),    # nested
         Box(-9, -9, 9, 9)]  # contains
    ia, ib, overlap = pairwise_overlaps(box_array(a), box_array(b))
    assert ib.tolist() == [1, 2, 3]
    assert [Box(*ov) for ov in overlap.tolist()] == [
        Box(3, 3, 3, 3), Box(1, 1, 2, 2), Box(0, 0, 3, 3)]


# ------------------------------------------------------------ block storage
def test_fields_alias_the_block():
    p = Patch(box=Box(0, 0, 3, 5), level=0, nghost=1)
    block = p.allocate(["a", "b", "c"], fill=2.0)
    assert block.shape == (3, 6, 8) and p.names == ("a", "b", "c")
    for k, name in enumerate(p.names):
        assert np.shares_memory(p.fields[name], block[k])
        assert p.data(name).base is block
    p.interior("b")[...] = 7.0
    assert block[1, 1:-1, 1:-1].min() == 7.0 and block[0].max() == 2.0
    block[2, 0, 0] = -1.0
    assert p.view("c", Box(-1, -1, -1, -1))[0, 0] == -1.0


def test_patch_copy_round_trips_the_block_bitwise(rng):
    p = Patch(box=Box(2, 2, 9, 6), level=1, nghost=2, owner=1)
    p.allocate(FIELDS)[...] = rng.standard_normal((2, 12, 9))
    q = p.copy()
    assert q.names == p.names and q.block is not p.block
    assert q.block.tobytes() == p.block.tobytes()
    assert all(np.shares_memory(q.fields[f], q.block) for f in FIELDS)
    q.block[...] = 0.0
    assert p.block.any()
    remote = Patch(box=Box(0, 0, 1, 1), level=0).copy()
    assert remote.block is None and remote.fields == {}


def test_checkpoint_round_trip_restores_blocks_bitwise():
    h = make_hierarchy()
    h.regrid()
    h.ghost_update(1)
    state = hierarchy_state(h)
    assert all(arr.ndim == 2 for saved in state["local_fields"].values()
               for arr in saved.values()), "file format: one 2-D array a field"
    twin = GridHierarchy(Box(0, 0, 31, 31), FIELDS, max_levels=3,
                         max_patch_cells=256, min_width=4)
    restore_hierarchy(twin, state)
    assert hierarchy_states_equal(state, hierarchy_state(twin))
    for lev in range(h.max_levels):
        for p, q in zip(h.levels[lev], twin.levels[lev]):
            assert q.names == p.names
            assert q.block.tobytes() == p.block.tobytes()
            assert all(np.shares_memory(q.fields[f], q.block) for f in FIELDS)
    # ... and the restored hierarchy carries on exactly like the original
    assert twin.ghost_update(1) == h.ghost_update(1)
    assert hierarchy_states_equal(hierarchy_state(h), hierarchy_state(twin))


def _one_field_twin(patch, name):
    twin = Patch(box=patch.box, level=patch.level, nghost=patch.nghost)
    twin.allocate([name])[0] = patch.data(name)
    return twin


def test_multi_field_transfer_equals_per_field_transfers_bitwise(rng):
    names = ["rho", "mx", "my", "E"]
    coarse = Patch(box=Box(0, 0, 7, 5), level=0, nghost=2)
    fine = Patch(box=Box(4, 2, 13, 9), level=1, nghost=2)
    for p in (coarse, fine):
        p.allocate(names)[...] = (rng.standard_normal((4, *p.array_shape))
                                  * 10.0 ** rng.integers(-3, 4, (4, 1, 1)))
    window = (slice(None), slice(1, 7), slice(0, 5))
    moves = [
        # coarse -> fine ghosts: prolong, then crop
        dict(src="coarse", dst="fine", src_region=Box(1, 0, 4, 3),
             dst_region=Box(3, 0, 8, 4),
             transform=lambda b: prolong(b, 2)[window]),
        # fine -> coarse interior: restrict
        dict(src="fine", dst="coarse", src_region=Box(4, 2, 11, 9),
             dst_region=Box(2, 1, 5, 4), transform=lambda b: restrict(b, 2)),
        # plain copy
        dict(src="fine", dst="coarse", src_region=Box(6, 4, 7, 6),
             dst_region=Box(0, 0, 1, 2), transform=None),
    ]
    for move in moves:
        def transfer(patches):
            return Transfer(
                src_patch=patches[move["src"]], dst_patch=patches[move["dst"]],
                src_region=move["src_region"], dst_region=move["dst_region"],
                transform=move["transform"])

        together = {"coarse": coarse.copy(), "fine": fine.copy()}
        execute_transfers([transfer(together)], names, comm=None)
        for name in names:
            apart = {"coarse": _one_field_twin(coarse, name),
                     "fine": _one_field_twin(fine, name)}
            t = transfer(apart)
            t.insert(t.extract([name]), [name])
            for key in ("coarse", "fine"):
                assert (together[key].data(name).tobytes()
                        == apart[key].data(name).tobytes()), (move, name)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_restrict_and_prolong_over_a_block_equal_the_per_field_calls(
        nfields, ni, nj, r, seed):
    rng = make_rng(seed)
    store = rng.standard_normal((nfields, ni * r + 4, nj * r + 4))
    block = store[:, 2:-2, 2:-2]  # a strided view, as a patch region is
    assert restrict(block, r).tobytes() == np.stack(
        [restrict(np.ascontiguousarray(block[k]), r)
         for k in range(nfields)]).tobytes()
    assert prolong(block, r).tobytes() == np.stack(
        [prolong(block[k], r) for k in range(nfields)]).tobytes()


def test_transfer_rejects_a_field_list_that_is_not_the_patch_block():
    a = Patch(box=Box(0, 0, 3, 3), level=0, nghost=0)
    b = Patch(box=Box(0, 0, 3, 3), level=0, nghost=0)
    a.allocate(["rho", "mx"])
    b.allocate(["rho", "mx"])
    t = Transfer(src_patch=a, dst_patch=b, src_region=a.box, dst_region=b.box)
    with pytest.raises(ValueError, match="whole block"):
        execute_transfers([t], ["rho"], comm=None)


# ------------------------------------------------------------- distributed
def test_compiled_plan_splits_per_rank_and_keeps_full_plan_tags():
    """Each rank walks only its own transfers, yet tags are indices into
    the full replicated plan, so both ends of a message agree."""
    def job(comm):
        h = make_hierarchy(comm)
        h.regrid()
        h.fill(1, two_front_ic)
        h.ghost_update(1)
        plan = h.ghost_plans(1)[-1]
        layout = plan.layout(comm.rank)
        for t in layout.local:
            assert t.src_patch.owner == comm.rank == t.dst_patch.owner
        remote = 0
        for bundles, end in ((layout.sends, "src_patch"),
                             (layout.recvs, "dst_patch")):
            assert len({b.peer for b in bundles}) == len(bundles)
            for b in bundles:
                idxs = [idx for idx, _t, _lo, _hi in b.items]
                assert idxs == sorted(idxs) and b.first == idxs[0]
                for idx, t, _lo, _hi in b.items:
                    assert plan.transfers[idx] is t
                    assert getattr(t, end).owner == comm.rank != b.peer
                remote += len(b.items)
        assert plan.layout(comm.rank) is layout
        mine = len(layout.local) + remote
        state = hierarchy_state(h)
        return (len(plan), mine, h.exchanger._tag,
                {uid: {f: a.tobytes() for f, a in saved.items()}
                 for uid, saved in state["local_fields"].items()})

    serial = make_hierarchy()
    serial.regrid()
    serial.fill(1, two_front_ic)
    serial.ghost_update(1)
    want = {p.uid: {f: p.data(f).tobytes() for f in FIELDS}
            for level in serial.levels for p in level}

    out = ParallelRunner(3, network=LOOPBACK, timeout_s=30.0).run(job)
    assert len({(n, tag) for n, _m, tag, _d in out}) == 1
    full = out[0][0]
    assert all(0 < m < full for _n, m, _t, _d in out)
    assert out[0][2] == serial.exchanger._tag
    got = {uid: data for _n, _m, _t, local in out for uid, data in local.items()}
    assert got == want


def test_exchange_plan_len_is_the_full_plan():
    a = Patch(box=Box(0, 0, 3, 7), level=0, owner=0)
    b = Patch(box=Box(4, 0, 7, 7), level=0, owner=1)
    plan = ExchangePlan(ghost.plan_same_level_exchange([a, b]))
    assert len(plan) == 2
    mine = plan.layout(0)
    assert mine.local == [] and len(mine.sends) == len(mine.recvs) == 1
    assert plan.layout(2) == ([], [], [])
