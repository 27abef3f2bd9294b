"""The patch hierarchy (Berger-Colella SAMR).

"one ultimately obtains a hierarchy of patches with different grid
densities, with the finest patches overlaying a small part of the domain"
(paper Section 5).  A :class:`GridHierarchy` holds L levels of patches over
a rectangular domain with a constant refinement factor; metadata (boxes,
owners, uids) is replicated on every rank (SCMD), while field data lives
only on the owning rank and moves through :mod:`repro.amr.ghost` transfers.

Responsibilities:

* level-0 decomposition into blocks and load-balanced ownership;
* gradient flagging -> Berger-Rigoutsos clustering -> regrid, with
  deterministic patch numbering so all ranks agree without negotiation;
* ghost-cell updates (coarse-to-fine cascade fill, same-level exchange,
  zero-gradient physical boundaries), returning the modeled MPI time each
  call consumed — the per-level samples of the paper's Figure 9;
* conservative fine-to-coarse synchronization (restriction).

The transfer pattern of a level is fixed between regrids, so its plans are
compiled on first use and kept until :meth:`GridHierarchy.set_level`
replaces that level or a coarser one; ``ghost_update`` and ``sync_down``
only execute them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.amr import ghost
from repro.amr.box import Box, box_array, pairwise_overlaps
from repro.amr.clustering import cluster_flags
from repro.amr.decomposition import (DecompositionStats, assign_knapsack,
                                     assign_round_robin)
from repro.amr.flagging import buffer_flags, flag_gradient
from repro.amr.ghost import ExchangePlan, GhostExchanger, Transfer
from repro.amr.interpolation import prolong, restrict
from repro.amr.patch import Patch
from repro.mpi.comm import SimComm
from repro.util.validation import check_in_range, check_positive

_BALANCERS = {"knapsack": assign_knapsack, "round_robin": assign_round_robin}


def ghost_strips(box: Box, nghost: int, clip: Box) -> list[Box]:
    """The ghost frame of ``box`` as up to 4 rectangles, clipped to ``clip``."""
    if nghost == 0:
        return []
    g = box.grow(nghost)
    candidates = [
        Box(g.ilo, g.jlo, box.ilo - 1, g.jhi),  # low-i strip (full j width)
        Box(box.ihi + 1, g.jlo, g.ihi, g.jhi),  # high-i strip
        Box(box.ilo, g.jlo, box.ihi, box.jlo - 1),  # low-j strip (between)
        Box(box.ilo, box.jhi + 1, box.ihi, g.jhi),  # high-j strip
    ]
    out = []
    for c in candidates:
        ov = c.intersection(clip)
        if ov is not None:
            out.append(ov)
    return out


def _refined(boxes: np.ndarray, r: int) -> np.ndarray:
    """:meth:`Box.refine` over an ``(n, 4)`` box array."""
    return np.hstack([boxes[:, :2] * r, (boxes[:, 2:] + 1) * r - 1])


class GridHierarchy:
    """L-level SAMR hierarchy with distributed patch data."""

    def __init__(
        self,
        domain: Box,
        fields: Sequence[str],
        *,
        refinement_factor: int = 2,
        max_levels: int = 3,
        nghost: int = 2,
        comm: SimComm | None = None,
        physical_extent: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
        flag_threshold: float = 0.05,
        flag_buffer: int = 2,
        min_fill: float = 0.7,
        max_patch_cells: int = 32_768,
        min_width: int = 4,
        balancer: str = "knapsack",
    ) -> None:
        check_positive("refinement_factor", refinement_factor)
        check_positive("max_levels", max_levels)
        check_positive("min_width", min_width)
        check_in_range("min_fill", min_fill, 0.0, 1.0)
        if balancer not in _BALANCERS:
            raise ValueError(f"balancer must be one of {sorted(_BALANCERS)}, got {balancer!r}")
        self.domain = domain
        self.fields = list(fields)
        if not self.fields:
            raise ValueError("at least one field is required")
        self.r = int(refinement_factor)
        self.max_levels = int(max_levels)
        self.nghost = int(nghost)
        self.comm = comm
        self.rank = comm.rank if comm is not None else 0
        self.nranks = comm.size if comm is not None else 1
        (self.x0, self.x1), (self.y0, self.y1) = physical_extent
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate physical extent {physical_extent}")
        self.flag_threshold = flag_threshold
        self.flag_buffer = int(flag_buffer)
        self.min_fill = min_fill
        self.max_patch_cells = int(max_patch_cells)
        self.min_width = int(min_width)
        self.balancer = _BALANCERS[balancer]
        #: patches per level; replaced only through :meth:`set_level`
        self.levels: list[list[Patch]] = [[] for _ in range(self.max_levels)]
        #: compiled plans, each filed under the finest level it reads:
        #: the exchanges of ``ghost_update(k)`` and of ``sync_down(k - 1)``
        self._ghost_plans: list[list[ExchangePlan] | None] = [None] * self.max_levels
        self._sync_plans: list[ExchangePlan | None] = [None] * self.max_levels
        self.exchanger = GhostExchanger(comm=comm, rank=self.rank)
        self._uid = 0
        #: number of completed regrids (decomposition generation, Figure 9)
        self.regrid_count = 0
        self.decomposition_stats: list[DecompositionStats] = []

    # ----------------------------------------------------------- geometry
    def dx(self, level: int) -> tuple[float, float]:
        """Physical cell size (dx, dy) on ``level``.

        Axis convention: array axis 1 (j, the C-contiguous axis) is x, so
        x-direction sweeps are memory-sequential and y-direction sweeps are
        strided — the paper's sequential/strided dual mode of States and
        the flux components.  Axis 0 (i) is y.
        """
        ni, nj = self.domain.shape
        f = self.r**level
        return ((self.x1 - self.x0) / (nj * f), (self.y1 - self.y0) / (ni * f))

    def level_box(self, level: int) -> Box:
        """The whole-domain index box at ``level`` resolution."""
        return self.domain.refine(self.r**level)

    def cell_centers(self, patch: Patch, include_ghosts: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) center coordinates for a patch's cells.

        Arrays are indexed ``[i, j]`` with j along x (contiguous) and i
        along y; both returned grids have the patch's array shape.
        """
        dx, dy = self.dx(patch.level)
        box = patch.ghost_box if include_ghosts else patch.box
        yi = self.y0 + (np.arange(box.ilo, box.ihi + 1) + 0.5) * dy
        xj = self.x0 + (np.arange(box.jlo, box.jhi + 1) + 0.5) * dx
        Y, X = np.meshgrid(yi, xj, indexing="ij")
        return X, Y

    # ----------------------------------------------------------- patches
    def _alloc_uid(self) -> int:
        self._uid += 1
        return self._uid

    def _new_patch(self, box: Box, level: int) -> Patch:
        return Patch(box=box, level=level, nghost=self.nghost, uid=self._alloc_uid())

    def is_local(self, patch: Patch) -> bool:
        return self.comm is None or patch.owner == self.rank

    def patches(self, level: int) -> list[Patch]:
        return list(self.levels[level])

    def local_patches(self, level: int) -> list[Patch]:
        return [p for p in self.levels[level] if self.is_local(p)]

    def set_level(self, level: int, patches: list[Patch]) -> None:
        """Replace the patches of ``level``.

        The one write to ``levels``: it drops every compiled plan that
        reads this level — its own and those of all finer levels — so a
        plan built for a previous decomposition can never be executed.
        """
        self.levels[level] = patches
        for k in range(level, self.max_levels):
            self._ghost_plans[k] = self._sync_plans[k] = None

    def _allocate_local(self, patches: Sequence[Patch]) -> None:
        for p in patches:
            if self.is_local(p):
                p.allocate(self.fields)

    def total_cells(self, level: int | None = None) -> int:
        levels = range(self.max_levels) if level is None else [level]
        return sum(p.ncells for lev in levels for p in self.levels[lev])

    # -------------------------------------------------------------- init
    def init_level0(self, blocks: tuple[int, int] = (2, 2)) -> None:
        """Decompose the domain into a blocks[0] x blocks[1] patch grid."""
        bi, bj = blocks
        check_positive("blocks[0]", bi)
        check_positive("blocks[1]", bj)
        ni, nj = self.domain.shape
        if bi > ni or bj > nj:
            raise ValueError(f"cannot split {ni}x{nj} domain into {bi}x{bj} blocks")
        iedges = np.linspace(self.domain.ilo, self.domain.ihi + 1, bi + 1).astype(int)
        jedges = np.linspace(self.domain.jlo, self.domain.jhi + 1, bj + 1).astype(int)
        patches = []
        for a in range(bi):
            for b in range(bj):
                box = Box(iedges[a], jedges[b], iedges[a + 1] - 1, jedges[b + 1] - 1)
                patches.append(self._new_patch(box, 0))
        stats = self.balancer(patches, self.nranks)
        self.decomposition_stats.append(stats)
        self.set_level(0, patches)
        self._allocate_local(patches)

    def fill(self, level: int, fn: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]) -> None:
        """Set local patch data from ``fn(X, Y) -> {field: array}``.

        Fills interior *and* ghost cells (initial conditions are analytic,
        so ghosts can be seeded directly).
        """
        for p in self.local_patches(level):
            X, Y = self.cell_centers(p, include_ghosts=True)
            values = fn(X, Y)
            missing = set(self.fields) - set(values)
            if missing:
                raise KeyError(f"initial condition missing fields {sorted(missing)}")
            for f in self.fields:
                arr = np.asarray(values[f], dtype=float)
                if arr.shape != p.array_shape:
                    raise ValueError(
                        f"initial condition for {f!r} has shape {arr.shape}, "
                        f"expected {p.array_shape}"
                    )
                p.data(f)[...] = arr

    # ------------------------------------------------------ ghost update
    def _prolong_transfers(self, targets: Sequence[tuple[Patch, Box]],
                           src_level: int, dst_level: int) -> list[Transfer]:
        """Transfers filling each ``(fine patch, region)`` target on
        ``dst_level`` by prolongation from the patches of ``src_level``."""
        power = self.r ** (dst_level - src_level)
        sources = self.levels[src_level]
        regions = box_array(region for _fp, region in targets)
        itarget, isrc, coarse = pairwise_overlaps(
            regions // power, box_array(cp.box for cp in sources))
        cover = _refined(coarse, power)
        # Every coarse cell under a region holds a cell of it, so the
        # fine cover always meets the region.
        dst = np.hstack([np.maximum(cover[:, :2], regions[itarget, :2]),
                         np.minimum(cover[:, 2:], regions[itarget, 2:])])
        crop = np.hstack([dst[:, :2], dst[:, 2:] + 1]) - np.tile(cover[:, :2], 2)
        plan = []
        for k, s, ov_c, d, (i0, j0, i1, j1) in zip(
                itarget.tolist(), isrc.tolist(), coarse.tolist(),
                dst.tolist(), crop.tolist()):
            window = (slice(None), slice(i0, i1), slice(j0, j1))
            plan.append(Transfer(
                src_patch=sources[s],
                dst_patch=targets[k][0],
                src_region=Box(*ov_c),
                dst_region=Box(*d),
                transform=(lambda b, p=power, w=window: prolong(b, p)[w]),
            ))
        return plan

    def _interlevel_ghost_phases(self, level: int) -> list[list[Transfer]]:
        """Coarse->fine prolongation transfers covering fine ghost strips.

        Cascades from level 0 upward so finer sources overwrite coarser
        ones; level 0 covers the domain, so no strip is left unfilled.
        Returns one transfer list per source level: each must be drained
        as its own exchange, because a nonblocking drain completes inserts
        in arrival order and would otherwise let a coarse prolongation
        land *on top of* finer data (a write-after-write race the ghost
        sanitizer flags).
        """
        lbox = self.level_box(level)
        strips = [(fp, strip) for fp in self.levels[level]
                  for strip in ghost_strips(fp.box, self.nghost, lbox)]
        return [self._prolong_transfers(strips, src_level, level)
                for src_level in range(level)]

    def _fill_physical_bc(self, level: int) -> None:
        """Zero-gradient extrapolation into ghosts outside the domain."""
        g = self.nghost
        if g == 0:
            return
        lbox = self.level_box(level)
        for p in self.local_patches(level):
            arr = p.block
            if p.box.ilo == lbox.ilo:
                arr[:, :g, :] = arr[:, g : g + 1, :]
            if p.box.ihi == lbox.ihi:
                arr[:, -g:, :] = arr[:, -g - 1 : -g, :]
            if p.box.jlo == lbox.jlo:
                arr[:, :, :g] = arr[:, :, g : g + 1]
            if p.box.jhi == lbox.jhi:
                arr[:, :, -g:] = arr[:, :, -g - 1 : -g]

    def ghost_plans(self, level: int) -> list[ExchangePlan]:
        """The exchanges of one ghost update, in execution order: one per
        coarser source level, then the same-level exchange."""
        plans = self._ghost_plans[level]
        if plans is None:
            plans = [ExchangePlan(phase)
                     for phase in self._interlevel_ghost_phases(level)]
            # Looked up on the module at call time, like ``execute_transfers``
            # in ``GhostExchanger.run``: a tracer that wraps the module's
            # functions must see every plan build.
            plans.append(ExchangePlan(
                ghost.plan_same_level_exchange(self.levels[level])))
            self._ghost_plans[level] = plans
        return plans

    def ghost_update(self, level: int) -> float:
        """Fill ghost cells on ``level``; returns modeled MPI time (us).

        Order: coarse-level cascade fill, then same-level exchange (which
        overwrites where true neighbors exist), then physical boundaries.
        """
        comm_us = 0.0
        for plan in self.ghost_plans(level):
            comm_us += self.exchanger.run(plan, self.fields)
        self._fill_physical_bc(level)
        return comm_us

    # ---------------------------------------------------------- sync down
    def sync_plan(self, level: int) -> ExchangePlan:
        """Restriction of level+1 interiors onto ``level``."""
        plan = self._sync_plans[level + 1]
        if plan is None:
            coarse, fine = self.levels[level], self.levels[level + 1]
            icoarse, ifine, ov_f = pairwise_overlaps(
                _refined(box_array(cp.box for cp in coarse), self.r),
                box_array(fp.box for fp in fine))
            plan = self._sync_plans[level + 1] = ExchangePlan([
                Transfer(
                    src_patch=fine[f],
                    dst_patch=coarse[c],
                    src_region=Box(*src),
                    dst_region=Box(*dst),
                    transform=(lambda b, r=self.r: restrict(b, r)),
                )
                for c, f, src, dst in zip(icoarse.tolist(), ifine.tolist(),
                                          ov_f.tolist(), (ov_f // self.r).tolist())
            ])
        return plan

    def sync_down(self, level: int) -> float:
        """Restrict level+1 interiors onto ``level``; returns MPI time (us)."""
        if level + 1 >= self.max_levels or not self.levels[level + 1]:
            return 0.0
        return self.exchanger.run(self.sync_plan(level), self.fields)

    # ----------------------------------------------------------- invariants
    def check_nesting(self, buffer: int = 0) -> list[str]:
        """Verify structural invariants; returns a list of violations.

        Checks, per level: patches lie inside the level's domain box,
        patches on a level are pairwise disjoint, and (proper nesting)
        every fine patch, shrunk by ``buffer`` cells, is covered by the
        union of its parent level's patches.
        """
        problems: list[str] = []
        for lev in range(self.max_levels):
            lbox = self.level_box(lev)
            patches = self.levels[lev]
            for p in patches:
                if not lbox.contains_box(p.box):
                    problems.append(f"L{lev} patch {p.uid} {p.box} outside {lbox}")
            for i, a in enumerate(patches):
                for b in patches[i + 1:]:
                    if a.box.intersection(b.box) is not None:
                        problems.append(
                            f"L{lev} patches {a.uid} and {b.uid} overlap"
                        )
            if lev == 0 or not patches:
                continue
            # Coverage of each fine patch by the coarser level.
            parent_boxes = [cp.box for cp in self.levels[lev - 1]]
            for p in patches:
                target = p.box.coarsen(self.r)
                if buffer:
                    try:
                        target = target.grow(-buffer)
                    except ValueError:
                        continue  # patch smaller than the buffer: vacuous
                uncovered = target.ncells
                for pb in parent_boxes:
                    ov = target.intersection(pb)
                    if ov is not None:
                        uncovered -= ov.ncells
                if uncovered > 0:
                    problems.append(
                        f"L{lev} patch {p.uid} {p.box}: {uncovered} coarse "
                        "cells not covered by parent level"
                    )
        return problems

    # -------------------------------------------------------------- regrid
    def _local_flag_mask(self, patch: Patch, field: str) -> np.ndarray:
        """Gradient flags for one patch's interior, using one ghost ring.

        Flagging on ghost-inclusive data is essential: a discontinuity
        sitting exactly on a patch boundary is invisible to interior-only
        gradients.  Requires ghosts to be current (regrid refreshes them).
        """
        grown = patch.view(field, patch.box.grow(1))
        return flag_gradient(grown, self.flag_threshold)[1:-1, 1:-1]

    def _gather_flags(self, level: int, field: str) -> np.ndarray:
        """Identical-on-all-ranks global flag mask for ``level``."""
        local = [
            (p.uid, self._local_flag_mask(p, field))
            for p in self.local_patches(level)
        ]
        if self.comm is not None:
            gathered = self.comm.allgather(local)
            masks = {uid: m for part in gathered for uid, m in part}
        else:
            masks = dict(local)
        lbox = self.level_box(level)
        flags = np.zeros(lbox.shape, dtype=bool)
        for p in self.levels[level]:
            flags[p.box.slices(lbox)] |= masks[p.uid]
        return buffer_flags(flags, self.flag_buffer)

    def regrid(self, field: str | None = None) -> float:
        """Rebuild levels 1..L-1 from current data; returns MPI time (us).

        Every rank runs the identical flag-gather/cluster/balance sequence,
        so the new decomposition needs no negotiation.  New fine patches are
        filled by a coarse-to-fine prolongation cascade, then overwritten
        with data copied from the *old* fine patches where they overlap
        (preserving fine-grid accuracy across the regrid).
        """
        field = field or self.fields[0]
        comm_us = 0.0
        for lev in range(self.max_levels - 1):
            if not self.levels[lev]:
                break
            # Flags read one ghost ring, so ghosts must be current.
            comm_us += self.ghost_update(lev)
            flags = self._gather_flags(lev, field)
            coarse_boxes = cluster_flags(
                flags,
                self.level_box(lev),
                min_fill=self.min_fill,
                max_cells=max(1, self.max_patch_cells // (self.r**2)),
                min_width=self.min_width,
            )
            # Proper nesting by construction: a cluster's bounding box can
            # span holes between level-`lev` patches (flags are only set
            # inside them); clip each box to the parent patches so every
            # child cell has a parent.  Pieces stay disjoint because both
            # the cluster boxes and the parent patches are disjoint.
            clipped: list[Box] = []
            for b in coarse_boxes:
                for cp in self.levels[lev]:
                    ov = b.intersection(cp.box)
                    if ov is not None:
                        clipped.append(ov)
            old_fine = self.levels[lev + 1]
            new_fine = [self._new_patch(b.refine(self.r), lev + 1) for b in clipped]
            stats = self.balancer(new_fine, self.nranks)
            self.decomposition_stats.append(stats)
            self._allocate_local(new_fine)

            # Seed from coarser levels (cascade, coarsest first).  Each
            # source level is its own exchange: destination regions across
            # levels overlap on purpose (finer overwrites coarser), and a
            # concurrent drain inserts in arrival order, so batching the
            # cascade into one plan would be a write-after-write race.
            whole = [(fp, fp.box) for fp in new_fine]
            for src_level in range(lev + 1):
                plan = self._prolong_transfers(whole, src_level, lev + 1)
                comm_us += self.exchanger.run(plan, self.fields)
            # Then preserve old fine data where it existed — again as a
            # separate exchange so it lands after every cascade write.
            inew, iold, kept = pairwise_overlaps(
                box_array(fp.box for fp in new_fine),
                box_array(op.box for op in old_fine))
            plan = []
            for n, o, ov in zip(inew.tolist(), iold.tolist(), kept.tolist()):
                region = Box(*ov)
                plan.append(Transfer(src_patch=old_fine[o], dst_patch=new_fine[n],
                                     src_region=region, dst_region=region))
            comm_us += self.exchanger.run(plan, self.fields)
            self.set_level(lev + 1, new_fine)
            comm_us += self.ghost_update(lev + 1)
        self.regrid_count += 1
        return comm_us
