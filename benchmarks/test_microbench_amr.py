"""Microbenchmarks of the AMR substrate.

Characterizes the Berger-Rigoutsos clustering, the cost of compiling a
ghost-exchange plan (paid once per regrid) and of executing a compiled
one (paid on every ghost update) at case-study-like sizes.
"""

import numpy as np
from conftest import write_out

from repro.amr import Box, GridHierarchy, cluster_flags
from repro.amr.ghost import (ExchangePlan, execute_transfers,
                             plan_same_level_exchange)


def _shock_flags(n=256):
    flags = np.zeros((n, n), dtype=bool)
    j = n // 2
    flags[:, j - 2 : j + 2] = True  # shock column
    flags[n // 4 : n // 2, 3 * n // 4 :] = True  # interface blob
    return flags


def test_microbench_clustering(benchmark, out_dir):
    n = 256
    flags = _shock_flags(n)
    origin = Box(0, 0, n - 1, n - 1)

    boxes = benchmark(lambda: cluster_flags(flags, origin, min_fill=0.7,
                                            max_cells=4096, min_width=4))
    covered = sum(b.ncells for b in boxes)
    write_out(out_dir, "microbench_amr_clustering.txt",
              f"{len(boxes)} boxes covering {covered} cells for "
              f"{int(flags.sum())} flags on a {n}x{n} level")
    assert boxes


def _build_level():
    h = GridHierarchy(Box(0, 0, 127, 127), ["rho", "mx", "my", "E"],
                      max_levels=1)
    h.init_level0(blocks=(4, 4))
    for p in h.levels[0]:
        for f in h.fields:
            p.data(f)[...] = 1.0
    return h


def test_microbench_ghost_plan(benchmark):
    h = _build_level()
    plan = benchmark(lambda: plan_same_level_exchange(h.levels[0]))
    assert plan  # 4x4 grid of patches has many abutting pairs


def test_microbench_ghost_execute_local(benchmark):
    h = _build_level()
    plan = ExchangePlan(plan_same_level_exchange(h.levels[0]))
    benchmark(lambda: execute_transfers(plan, h.fields, comm=None))


def test_microbench_ghost_update_compiled(benchmark):
    h = _build_level()
    h.ghost_update(0)  # compiles the level's plans
    benchmark(lambda: h.ghost_update(0))


def test_microbench_regrid(benchmark):
    def run():
        h = GridHierarchy(Box(0, 0, 63, 63), ["rho"], max_levels=3,
                          max_patch_cells=1024)
        h.init_level0()
        h.fill(0, lambda X, Y: {"rho": np.where(X < 0.5, 1.0, 4.0)})
        h.regrid()
        return len(h.levels[1])

    n_fine = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n_fine > 0
