"""One message per peer per exchange: a ghost exchange packs every
transfer between two ranks into one buffer, on both backends.

The layout under test (:func:`_build`) mixes plain ghost strips with a
restriction and a prolongation travelling between the same two ranks,
leaves some rank pairs with nothing to exchange, and (from 3 ranks on)
gives one rank only local transfers.
"""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.ghost import (ExchangePlan, GhostExchanger, Transfer,
                             execute_transfers, plan_same_level_exchange)
from repro.amr.interpolation import prolong, restrict
from repro.amr.patch import Patch
from repro.faults.injector import FaultInjector
from repro.faults.plan import DROP, DUPLICATE, FaultPlan, MessageFault
from repro.faults.policy import ResiliencePolicy
from repro.mpi import create_world
from repro.mpi.network import NetworkModel
from repro.util.rng import make_rng

FIELDS = ("rho", "mx", "E")
BACKENDS = ("thread", "mp-shm")
RANKS = (2, 3, 5)


def _build(nranks, rank=None):
    """``(patches by name, plan)`` of one exchange; allocates and fills
    the patches ``rank`` owns (every patch when ``rank`` is None).

    Level 0 is a row of 8x8 patches along j, owned round-robin by the
    first ``c`` ranks (``c = nranks - 1`` from 3 ranks on, else
    ``nranks``): neighbours swap ghost strips, so a bundle carries several
    transfers, and with ``c = 4`` ranks 0 and 2 share none.  From 3 ranks
    on, the last rank owns a separate row of two patches: only local
    transfers.  Rank 1 also restricts a fine patch onto rank 0's first
    patch and prolongs its own patch onto a fine patch of rank 0's.
    """
    c = nranks - 1 if nranks >= 3 else nranks
    patches = {f"row{k}": Patch(box=Box(0, 8 * k, 7, 8 * k + 7), level=0,
                                owner=k % c)
               for k in range(2 * c)}
    if nranks >= 3:
        for k in range(2):
            patches[f"alone{k}"] = Patch(box=Box(20, 8 * k, 27, 8 * k + 7),
                                         level=0, owner=nranks - 1)
    patches["fine_src"] = Patch(box=Box(0, 0, 7, 7), level=1, owner=1)
    patches["fine_dst"] = Patch(box=Box(0, 16, 7, 23), level=1, owner=0)
    for seed, p in enumerate(patches.values()):
        if rank is None or p.owner == rank:
            p.allocate(FIELDS)[...] = make_rng(seed).standard_normal(
                (len(FIELDS), *p.array_shape))
    level0 = [p for p in patches.values() if p.level == 0]
    plan = ExchangePlan([
        Transfer(src_patch=patches["fine_src"], dst_patch=patches["row0"],
                 src_region=Box(0, 0, 7, 7), dst_region=Box(0, 0, 3, 3),
                 transform=lambda b: restrict(b, 2)),
        *plan_same_level_exchange(level0),
        Transfer(src_patch=patches["row1"], dst_patch=patches["fine_dst"],
                 src_region=Box(0, 8, 3, 11), dst_region=Box(0, 16, 7, 23),
                 transform=lambda b: prolong(b, 2)),
    ])
    return patches, plan


def _peers(plan, rank):
    """(destination peers, source peers) of ``rank`` in ``plan``."""
    dests = {t.dst_patch.owner for t in plan
             if t.src_patch.owner == rank != t.dst_patch.owner}
    sources = {t.src_patch.owner for t in plan
               if t.dst_patch.owner == rank != t.src_patch.owner}
    return dests, sources


def _serial_fields(nranks):
    patches, plan = _build(nranks)
    before = {name: p.block.tobytes() for name, p in patches.items()}
    execute_transfers(plan, FIELDS, comm=None)
    after = {name: p.block.tobytes() for name, p in patches.items()}
    assert after != before
    return after


def _exchange(backend, nranks, repeats=1, **job):
    """Run the exchange ``repeats`` times; returns (every patch's block
    bytes, gathered from its owner, the world)."""
    def fn(comm):
        patches, plan = _build(nranks, comm.rank)
        exchanger = GhostExchanger(comm)
        for _ in range(repeats):
            exchanger.run(plan, FIELDS)
        return {name: p.block.tobytes() for name, p in patches.items()
                if p.owner == comm.rank}

    job.setdefault("timeout_s", 60.0)
    runner = create_world(backend, nranks=nranks, seed=3, **job)
    fields = {}
    for mine in runner.run(fn):
        fields.update(mine)
    return fields, runner.last_world


def test_layout_covers_the_cases_it_claims():
    for nranks in RANKS:
        _, plan = _build(nranks)
        layout = plan.layout(1)
        to_rank0 = [b for b in layout.sends if b.peer == 0]
        assert len(to_rank0) == 1 and len(to_rank0[0].items) > 2
        shapes = {t.dst_shape for _i, t, _lo, _hi in to_rank0[0].items}
        assert len(shapes) > 1  # strips, restricted and prolonged blocks
    _, plan = _build(5)
    assert 2 not in _peers(plan, 0)[0] | _peers(plan, 0)[1]
    for nranks in (3, 5):
        _, plan = _build(nranks)
        alone = plan.layout(nranks - 1)
        assert alone.local and not alone.sends and not alone.recvs


@pytest.mark.parametrize("nranks", RANKS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_isend_per_peer_per_exchange(backend, nranks):
    _, world = _exchange(backend, nranks, repeats=2)
    _, plan = _build(nranks)
    for rank in range(nranks):
        dests, sources = _peers(plan, rank)
        ledger = world.accounting[rank]
        assert ledger.calls("MPI_Isend") == 2 * len(dests), rank
        assert ledger.calls("MPI_Irecv") == 2 * len(sources), rank


@pytest.mark.parametrize("nranks", RANKS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fields_equal_the_serial_plan_bytewise(backend, nranks):
    fields, _ = _exchange(backend, nranks)
    assert fields == _serial_fields(nranks)


@pytest.mark.parametrize("kind", [DROP, DUPLICATE])
@pytest.mark.parametrize("backend", BACKENDS)
def test_faulted_bundle_recovers_identical_fields(backend, kind):
    """Rank 1's first bundle to rank 0 (restriction, strips and
    prolongation in one message) is dropped or duplicated."""
    plan = FaultPlan(messages=(MessageFault(kind=kind, source=1, dest=0,
                                            index=0, count=1),))
    fields, world = _exchange(backend, 3, injector=FaultInjector(plan, 3),
                              policy=ResiliencePolicy())
    assert fields == _serial_fields(3)
    counts = world.injector.total_counts()
    assert counts[f"fault.{kind}"] == 1
    if kind == DROP:
        assert counts["mpi.recovered"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_bundle_charge_is_latency_plus_bytes_over_bandwidth(backend):
    """Without jitter, the one ``MPI_Waitsome`` of each rank (one source
    peer each) is charged the whole bundle's cost: latency once, plus
    every transfer's bytes over the bandwidth."""
    net = NetworkModel(latency_us=50.0, bandwidth_bytes_per_us=12.5,
                       jitter_sigma=0.0)
    _, world = _exchange(backend, 2, network=net)
    _, plan = _build(2)
    for rank in range(2):
        cells = sum(t.dst_region.ncells for t in plan
                    if t.dst_patch.owner == rank != t.src_patch.owner)
        nbytes = np.dtype(np.float64).itemsize * len(FIELDS) * cells
        wait = world.accounting[rank].routine_totals()["MPI_Waitsome"]
        assert wait.calls == 1
        assert wait.total_us == pytest.approx(50.0 + nbytes / 12.5)
