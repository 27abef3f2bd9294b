"""Microbench: batched vs per-line flux kernels.

The batched sweep evaluates every interface of a patch sweep in one
vectorized kernel call; the per-line path (``batch=False``) is the
historical loop it replaced.  Both paths share the pointwise solver code,
so their outputs — and, for Godunov, the per-interface Newton iteration
counts — are bitwise identical; the speedup is pure loop-overhead and
vector-width economics.

Run with ``BENCH_SMOKE=1`` for a single-repeat CI smoke pass.
"""

import os

import numpy as np
from conftest import median_us, write_out

from repro.bench import record_cell
from repro.euler.efm import EFMKernel
from repro.euler.godunov import GodunovKernel
from repro.euler.states import StatesKernel
from repro.harness.sweeps import synthetic_patch_stack
from repro.util.tabular import format_table

TRAJECTORY = os.path.join(os.path.dirname(__file__), "out",
                          "BENCH_kernels.json")

SIZES = (64, 128, 256, 512)
EQUIV_TOL = 0.0


def _measure(kernel_batch, kernel_line, WL, WR, mode, repeats):
    t_line = median_us(lambda: kernel_line.compute(WL, WR, mode),
                       n=repeats, warmup=1)
    t_batch = median_us(lambda: kernel_batch.compute(WL, WR, mode),
                        n=repeats, warmup=1)
    F_line = kernel_line.compute(WL, WR, mode)
    F_batch = kernel_batch.compute(WL, WR, mode)
    maxdiff = float(np.abs(F_batch - F_line).max())
    return t_line, t_batch, maxdiff


def test_microbench_flux_batch(benchmark, out_dir, smoke):
    repeats = 1 if smoke else 5
    states = StatesKernel()
    rows = []
    speedups = {}
    walls_us = {}
    for n in SIZES:
        U = synthetic_patch_stack(n * n)
        for mode in ("x", "y"):
            WL, WR = states.compute(U, mode)
            for name, make in (
                ("Godunov", lambda b: GodunovKernel(batch=b)),
                ("EFM", lambda b: EFMKernel(batch=b)),
            ):
                kb, kl = make(True), make(False)
                t_line, t_batch, maxdiff = _measure(kb, kl, WL, WR, mode, repeats)
                if name == "Godunov":
                    # Iteration counts must survive batching bit-for-bit.
                    kl.compute(WL, WR, mode)
                    counts_line = kl.last_iter_counts
                    kb.compute(WL, WR, mode)
                    counts_batch = kb.last_iter_counts
                    assert np.array_equal(counts_batch, counts_line)
                assert maxdiff <= EQUIV_TOL, (name, n, mode, maxdiff)
                speedup = t_line / t_batch
                speedups[(name, n, mode)] = speedup
                walls_us[(name, n, mode)] = (t_line, t_batch)
                rows.append((name, f"{n}x{n}", mode, f"{t_line / 1e3:.2f}",
                             f"{t_batch / 1e3:.2f}", f"{speedup:.2f}x",
                             f"{maxdiff:.1e}"))

    table = format_table(
        ["kernel", "patch", "mode", "per-line ms", "batched ms", "speedup",
         "max |diff|"],
        rows,
        title="Microbench: batched vs per-line flux kernels",
    )
    write_out(out_dir, "microbench_flux_batch.txt", table)

    # Acceptance: >= 3x batched Godunov speedup on 256x256 (sequential
    # mode; the strided mode is recorded too).  Smoke runs only sanity-check
    # the direction — single repeats are too noisy for a tight bar.
    floor = 1.5 if smoke else 3.0
    assert speedups[("Godunov", 256, "x")] >= floor, speedups

    # BENCH_kernels trajectory: the speedup ratio is the gated cell (a
    # dimensionless ratio is stable across CI machines; raw walls are
    # machine-speed, so they ride along as ungated trend cells).
    record_cell(TRAJECTORY, "godunov_batch_speedup_256x",
                speedups[("Godunov", 256, "x")], unit="x",
                higher_is_better=True, gate=True,
                meta={"note": "committed baseline is a conservative floor, "
                              "not a measurement"})
    record_cell(TRAJECTORY, "efm_batch_speedup_256x",
                speedups[("EFM", 256, "x")], unit="x",
                higher_is_better=True, gate=False)
    for kernel in ("Godunov", "EFM"):
        t_line, t_batch = walls_us[(kernel, 256, "x")]
        record_cell(TRAJECTORY, f"{kernel.lower()}_256x_perline_us", t_line,
                    unit="us", gate=False)
        record_cell(TRAJECTORY, f"{kernel.lower()}_256x_batched_us", t_batch,
                    unit="us", gate=False)

    benchmark.extra_info["godunov_256_speedup_x"] = round(
        speedups[("Godunov", 256, "x")], 2)
    benchmark.extra_info["godunov_256_speedup_y"] = round(
        speedups[("Godunov", 256, "y")], 2)

    U = synthetic_patch_stack(256 * 256)
    WL, WR = states.compute(U, "x")
    kern = GodunovKernel()
    benchmark(lambda: kern.compute(WL, WR, "x"))
