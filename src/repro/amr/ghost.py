"""Distributed data transfers: ghost-cell updates and inter-level motion.

The paper's AMRMesh component spends its time here: "one [method] that does
'ghost-cell updates' on patches (gets data from abutting, but off-processor
patches onto a patch)".  A :class:`Transfer` moves a rectangular region of
field data from a source patch to a destination patch, optionally through a
resolution change (prolongation/restriction applied at the source);
:func:`execute_transfers` runs a deterministic plan over the simulated MPI
layer with ``isend``/``irecv``/``waitsome`` — the MPI_Waitsome-dominated
pattern of the paper's Figure 3 — sending one message per peer per
exchange: every transfer between two ranks in one plan is packed into one
buffer (:class:`Bundle`).

Plans are computed from replicated metadata (every rank knows all patch
boxes and owners), so all ranks enumerate identical transfer lists and tag
assignment needs no negotiation.  A plan only changes when the patches do,
so it is compiled once (:class:`ExchangePlan`) and executed many times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.amr.box import Box, box_array, pairwise_overlaps
from repro.amr.patch import Patch
from repro.mpi.comm import SimComm
from repro.mpi.request import waitsome

#: signature of a source-side data transform (e.g. prolong/restrict) of
#: an ``(nfields, ni, nj)`` block; it acts on the last two axes
Transform = Callable[[np.ndarray], np.ndarray]


@dataclass
class Transfer:
    """One region move: src_patch.src_region -> dst_patch.dst_region.

    Regions are boxes in each patch's own level index space; after the
    optional ``transform`` the source block's shape must equal the
    destination region's shape.  The storage slices of both regions are
    resolved once, here (``src_slices``/``dst_slices``, each an index
    into its patch's whole ``(nfields, ni, nj)`` block), so executing the
    transfer is one slice copy.
    ``dst_shape`` is the destination region's ``(ni, nj)``.
    """

    src_patch: Patch
    dst_patch: Patch
    src_region: Box
    dst_region: Box
    transform: Transform | None = None

    def __post_init__(self) -> None:
        self.src_slices = (
            slice(None), *self.src_region.slices(self.src_patch.ghost_box))
        self.dst_slices = (
            slice(None), *self.dst_region.slices(self.dst_patch.ghost_box))
        self.dst_shape = self.dst_region.shape

    def extract(self, fields: Sequence[str]) -> np.ndarray:
        """The ``(nfields, ...)`` source block (at the source rank).

        A view of the patch's storage unless a transform made a new array;
        ``fields`` must be the patch's own field list.
        """
        data = self.src_patch.whole_block(fields)[self.src_slices]
        if self.transform is not None:
            data = self.transform(data)
        if data.shape[1:] != self.dst_shape:
            raise ValueError(
                f"transfer block shape {data.shape[1:]} != destination region "
                f"shape {self.dst_shape} ({self.src_region} -> {self.dst_region})"
            )
        return data

    def insert(self, data: np.ndarray, fields: Sequence[str]) -> None:
        """Write a received block into the destination patch."""
        self.dst_patch.whole_block(fields)[self.dst_slices] = data


def plan_same_level_exchange(patches: Sequence[Patch]) -> list[Transfer]:
    """Ghost-cell update plan for one level.

    For every ordered pair of distinct patches, the destination's ghost
    frame is filled from the source's *interior* where they overlap.
    Deterministic: patches are traversed in uid order.
    """
    ordered = sorted(patches, key=lambda p: p.uid)
    boxes = box_array(p.box for p in ordered)
    nghost = np.array([p.nghost for p in ordered], dtype=np.int64)[:, None]
    grown = boxes + np.hstack([-nghost, -nghost, nghost, nghost])
    idst, isrc, overlap = pairwise_overlaps(grown, boxes)
    # Exclude the destination interior; only true ghost cells.
    inside = ((overlap[:, :2] >= boxes[idst, :2])
              & (overlap[:, 2:] <= boxes[idst, 2:])).all(axis=1)
    keep = (idst != isrc) & ~inside
    plan = []
    for d, s, ov in zip(idst[keep].tolist(), isrc[keep].tolist(),
                        overlap[keep].tolist()):
        region = Box(*ov)
        plan.append(Transfer(src_patch=ordered[s], dst_patch=ordered[d],
                             src_region=region, dst_region=region))
    return plan


class Bundle:
    """Every transfer between this rank and one peer in one exchange.

    The transfers travel as one float64 message, packed in plan order:
    transfer ``k`` occupies ``[nfields * lo_k, nfields * hi_k)`` of the
    buffer, its ``(nfields, *dst_shape)`` block in C order.  ``first`` is
    the plan index of the first transfer; ``tag_base + first`` is the
    message tag, which both ends derive from the replicated plan.
    """

    __slots__ = ("peer", "first", "items", "size")

    def __init__(self, peer: int, transfers: Sequence[tuple[int, Transfer]]) -> None:
        self.peer = peer
        self.first = transfers[0][0]
        #: ``(plan index, transfer, lo, hi)`` in plan order, offsets in
        #: cells of one field
        self.items: list[tuple[int, Transfer, int, int]] = []
        size = 0
        for idx, t in transfers:
            ncells = t.dst_region.ncells
            self.items.append((idx, t, size, size + ncells))
            size += ncells
        #: cells of one field in the whole message
        self.size = size

    def views(self, buf: np.ndarray,
              nfields: int) -> Iterator[tuple[Transfer, np.ndarray]]:
        """``(transfer, its block's view of buf)`` in plan order."""
        for _, t, lo, hi in self.items:
            yield t, buf[nfields * lo:nfields * hi].reshape(
                nfields, *t.dst_shape)


class RankLayout(NamedTuple):
    """What one rank does in one exchange, compiled from the full plan."""

    #: transfers with both ends on this rank, in plan order
    local: list[Transfer]
    #: one bundle per destination peer, in order of first plan index
    sends: list[Bundle]
    #: one bundle per source peer, in order of first plan index
    recvs: list[Bundle]


class ExchangePlan:
    """A compiled, reusable transfer plan.

    ``transfers`` is the full replicated list: its length and the index of
    each transfer fix the message tags, identically on every rank.  What
    one rank does with it - local copies, and one message to or from each
    peer it shares transfers with - is compiled once per rank
    (:meth:`layout`), so executing the plan walks only the transfers that
    rank takes part in; so are its overlapping inserts (:meth:`overlaps`).
    """

    def __init__(self, transfers: Sequence[Transfer]) -> None:
        self.transfers = list(transfers)
        self._layouts: dict[int, RankLayout] = {}
        self._overlaps: dict[int, list[tuple[int, int, Box]]] = {}

    def __len__(self) -> int:
        return len(self.transfers)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)

    def layout(self, rank: int) -> RankLayout:
        """``rank``'s local transfers and per-peer bundles (cached)."""
        layout = self._layouts.get(rank)
        if layout is None:
            local: list[Transfer] = []
            sends: dict[int, list[tuple[int, Transfer]]] = {}
            recvs: dict[int, list[tuple[int, Transfer]]] = {}
            for idx, t in enumerate(self.transfers):
                src, dst = t.src_patch.owner, t.dst_patch.owner
                if src == rank == dst:
                    local.append(t)
                elif src == rank:
                    sends.setdefault(dst, []).append((idx, t))
                elif dst == rank:
                    recvs.setdefault(src, []).append((idx, t))
            layout = self._layouts[rank] = RankLayout(
                local, [Bundle(p, ts) for p, ts in sends.items()],
                [Bundle(p, ts) for p, ts in recvs.items()])
        return layout

    def overlaps(self, rank: int) -> list[tuple[int, int, Box]]:
        """``(i, j, region)`` for every two transfers ``i < j`` that
        ``rank`` inserts into one patch over a shared ``region`` (cached)."""
        found = self._overlaps.get(rank)
        if found is None:
            mine = [(i, t) for i, t in enumerate(self.transfers)
                    if t.dst_patch.owner == rank]
            regions = box_array(t.dst_region for _, t in mine)
            ia, ib, shared = pairwise_overlaps(regions, regions)
            found = self._overlaps[rank] = [
                (mine[a][0], mine[b][0], Box(*box))
                for a, b, box in zip(ia.tolist(), ib.tolist(), shared.tolist())
                if a < b and mine[a][1].dst_patch is mine[b][1].dst_patch]
        return found


def execute_transfers(
    transfers: Sequence[Transfer] | ExchangePlan,
    fields: Sequence[str],
    comm: SimComm | None,
    rank: int = 0,
    tag_base: int = 0,
) -> float:
    """Run a transfer plan; returns the modeled MPI time consumed (us).

    Local transfers (src and dst owned by ``rank``) copy directly, first.
    Remote ones travel one message per peer (:class:`Bundle`): each send
    bundle is packed and posted with ``isend``, one ``irecv`` is posted
    per source peer, and completions are drained with ``waitsome``, the
    paper's AMRMesh communication pattern; an arrived bundle is unpacked
    transfer by transfer, in plan order.  Transfer ``idx``'s tag is
    ``tag_base + idx``, a bundle's that of its first transfer.  With
    ``comm=None`` the plan must be entirely local (serial runs).  An
    attached sanitizer checks the plan before anything is copied or posted.
    """
    fields = tuple(fields)
    if comm is None:
        for t in transfers:
            t.insert(t.extract(fields), fields)
        return 0.0

    plan = transfers if isinstance(transfers, ExchangePlan) else ExchangePlan(transfers)
    layout = plan.layout(rank)
    nfields = len(fields)
    before_us = comm.accounting.total_us()
    san = comm.world.sanitizer
    if san is not None:
        san.check_exchange(plan, rank, fields, tag_base)
    for t in layout.local:
        t.insert(t.extract(fields), fields)
    for b in layout.sends:
        buf = np.empty(nfields * b.size)
        for t, view in b.views(buf, nfields):
            view[...] = t.extract(fields)
        comm.isend(buf, dest=b.peer, tag=tag_base + b.first)
    pending = [comm.irecv(source=b.peer, tag=tag_base + b.first)
               for b in layout.recvs]
    while any(not r.complete for r in pending):
        for i in waitsome(pending):
            for t, view in layout.recvs[i].views(pending[i].payload, nfields):
                t.insert(view, fields)
    return comm.accounting.total_us() - before_us


class GhostExchanger:
    """Tag allocator and executor for a mesh's transfer plans.

    One instance per mesh; every call advances the shared tag counter the
    same way on every rank (plans are replicated), keeping message matching
    unambiguous across overlapping exchanges.
    """

    def __init__(self, comm: SimComm | None = None, rank: int = 0) -> None:
        self.comm = comm
        self.rank = rank if comm is None else comm.rank
        self._tag = 0

    def run(self, transfers: Sequence[Transfer] | ExchangePlan,
            fields: Sequence[str]) -> float:
        """Execute a plan under fresh tags; returns modeled MPI time (us)."""
        base = self._tag
        self._tag += max(len(transfers), 1)
        return execute_transfers(transfers, fields, self.comm, self.rank, tag_base=base)
