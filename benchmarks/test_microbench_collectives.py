"""Flat vs hierarchical collective cost at scale (8..64 ranks).

The paper's cluster ran MPICH collectives, which are tree-based; the
simulator's legacy cost model charges every collective a generic
log-tree cost regardless of the algorithm.  The ``collectives="flat"``
family charges the honest linear-in-P cost of a naive
root-loops-over-peers implementation, and ``collectives="hier"`` the
cost of binomial-tree / recursive-doubling / ring algorithms, which
scales like real MPI.  (The family picks only the cost: the values move
by the same tree under every family.)

This bench sweeps P over 8, 16, 32, 64 on the thread backend, records
per-rank modeled Allreduce/Bcast cost under both families into the
``BENCH_scaling.json`` trajectory, and asserts the hierarchy wins from
16 ranks up — the scaling claim the backend refactor exists to serve.
Modeled (virtual) microseconds are deterministic given the seed, so
these cells gate tightly in CI regardless of runner noise.
"""

from __future__ import annotations

import os

import numpy as np

from conftest import write_out
from repro.bench import record_cell
from repro.mpi import NetworkModel, create_world
from repro.util.tabular import format_table

TRAJECTORY = os.path.join(os.path.dirname(__file__), "out",
                          "BENCH_scaling.json")

RANKS = (8, 16, 32, 64)
REPEATS = 4
PAYLOAD = 256  # float64s per rank

NETWORK = NetworkModel(latency_us=50.0, bandwidth_bytes_per_us=300.0,
                       jitter_sigma=0.0)  # jitter off: pure algorithm cost


def collective_workload(comm):
    data = np.full(PAYLOAD, float(comm.rank + 1))
    for _ in range(REPEATS):
        comm.allreduce(float(data.sum()))
        comm.bcast(data if comm.rank == 0 else None, root=0)
    return True


def modeled_cost(world, routine: str) -> float:
    """Max per-rank modeled cost of one call (us): the cohort finishes a
    collective when its slowest rank does."""
    per_rank = []
    for r in range(world.nranks):
        stats = world.accounting[r].routine_totals().get(routine)
        per_rank.append(stats.total_us / stats.calls if stats else 0.0)
    return max(per_rank)


def run_family(nranks: int, collectives: str):
    world = create_world("thread", nranks=nranks, seed=0, network=NETWORK,
                         collectives=collectives, timeout_s=120.0)
    results = world.run(collective_workload)
    assert all(results)
    return world.last_world


def test_collectives_flat_vs_hier(benchmark, out_dir):
    costs: dict[tuple[str, str, int], float] = {}

    def run():
        for p in RANKS:
            for family in ("flat", "hier"):
                world = run_family(p, family)
                for routine in ("MPI_Allreduce", "MPI_Bcast"):
                    costs[(routine, family, p)] = modeled_cost(world, routine)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for routine in ("MPI_Allreduce", "MPI_Bcast"):
        for p in RANKS:
            flat = costs[(routine, "flat", p)]
            hier = costs[(routine, "hier", p)]
            rows.append((routine, p, f"{flat:.1f}", f"{hier:.1f}",
                         f"{flat / hier:.2f}x"))
            short = routine.replace("MPI_", "").lower()
            record_cell(TRAJECTORY, f"{short}_flat_p{p}_us", flat,
                        meta={"ranks": p, "family": "flat"})
            record_cell(TRAJECTORY, f"{short}_hier_p{p}_us", hier,
                        meta={"ranks": p, "family": "hier"})
    write_out(out_dir, "microbench_collectives.txt", format_table(
        ["routine", "ranks", "flat (us)", "hier (us)", "flat/hier"], rows,
        title="Modeled collective cost: flat vs hierarchical algorithms",
    ))

    # The scaling claim: trees beat the flat linear algorithm from 16
    # ranks on, and the advantage grows with P (log P vs P).
    for routine in ("MPI_Allreduce", "MPI_Bcast"):
        for p in RANKS:
            if p >= 16:
                assert costs[(routine, "hier", p)] < costs[(routine, "flat", p)], \
                    (routine, p)
        gain_16 = costs[(routine, "flat", 16)] / costs[(routine, "hier", 16)]
        gain_64 = costs[(routine, "flat", 64)] / costs[(routine, "hier", 64)]
        assert gain_64 > gain_16, (routine, gain_16, gain_64)
    benchmark.extra_info["flat_over_hier_allreduce_p64"] = round(
        costs[("MPI_Allreduce", "flat", 64)]
        / costs[("MPI_Allreduce", "hier", 64)], 2)
