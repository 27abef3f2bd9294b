"""Tracing-tax microbench: case-study wall time off / sampled / full.

Writes ``benchmarks/out/microbench_tracing.txt`` with the measured and
self-reported overhead of the observability layer.  The tracer's
*self-reported* cost must stay under 10% of the run's wall time; in
non-smoke runs (median of several repeats) the measured off-vs-full wall
inflation must additionally stay under a loose 25% hard bound.  Wall
comparisons of sub-second threaded runs are noisy; the self-report is
the precise instrument.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import SMOKE, write_out
from repro.bench import record_cell
from repro.cca.scmd import MAIN_TIMER
from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.obs import ObsConfig, collect

TRAJECTORY = os.path.join(os.path.dirname(__file__), "out",
                          "BENCH_obs.json")


def _config(observe):
    # Patch sizes large enough that kernel work dominates per-op tracing
    # cost — the representative regime; a pure message-storm microloop
    # would measure Python allocation speed, not the tracing design.
    return CaseStudyConfig(
        params=DriverParams(nx=64, ny=64, steps=2, max_patch_cells=16384),
        nranks=3,
        network=NetworkModel(latency_us=500.0, bandwidth_bytes_per_us=16.0,
                             jitter_sigma=0.0),
        observe=observe,
    )


def _main_wall_us(res):
    return sum(snap[MAIN_TIMER].inclusive_us for snap in res.timer_snapshots)


def test_tracing_overhead(out_dir):
    repeats = 1 if SMOKE else 3
    variants = {"off": None, "sampled": ObsConfig(sample_every=16),
                "full": ObsConfig()}
    # One warmup of each variant, then interleaved repeats so allocator
    # state and CPU-frequency drift cancel (the conftest paired-timing
    # argument, applied to whole runs).
    results = {name: run_case_study(_config(obs))
               for name, obs in variants.items()}
    walls: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, obs in variants.items():
            t0 = time.perf_counter()
            results[name] = run_case_study(_config(obs))
            walls[name].append(time.perf_counter() - t0)
    t_off, t_sampled, t_full = (float(np.median(walls[k]))
                                for k in ("off", "sampled", "full"))
    res_sampled, res_full = results["sampled"], results["full"]

    pct_sampled = 100.0 * (t_sampled - t_off) / t_off
    pct_full = 100.0 * (t_full - t_off) / t_off

    # Self-reported tax: the tracer's own sampled clock-read accounting,
    # relative to the summed per-rank main-timer walls.
    def self_pct(res):
        records = collect(res)
        tax = sum(r.overhead["self_overhead_us"] for r in records)
        return 100.0 * tax / _main_wall_us(res), records

    self_sampled, recs_sampled = self_pct(res_sampled)
    self_full, recs_full = self_pct(res_full)

    lines = [
        "Tracing overhead microbench (3-rank case study, median of "
        f"{repeats} run(s))",
        f"  off:     {t_off:8.3f} s",
        f"  sampled: {t_sampled:8.3f} s  ({pct_sampled:+6.2f}% wall, "
        f"self-reported {self_sampled:.3f}%, "
        f"{sum(len(r.spans) for r in recs_sampled)} spans)",
        f"  full:    {t_full:8.3f} s  ({pct_full:+6.2f}% wall, "
        f"self-reported {self_full:.3f}%, "
        f"{sum(len(r.spans) for r in recs_full)} spans)",
        f"  sampled_out (1-in-16): "
        f"{sum(int(r.overhead['sampled_out']) for r in recs_sampled)} "
        "spans skipped",
    ]
    write_out(out_dir, "microbench_tracing.txt", "\n".join(lines))
    print("\n".join(lines))

    # Acceptance: full tracing pays < 10% by its own accounting; and the
    # wall-clock comparison stays under a loose bound.  The wall bound
    # needs a median of several runs to be meaningful — a single sample
    # of a sub-second threaded run swings tens of percent on scheduler
    # noise alone — so it is asserted only in non-smoke mode.
    assert self_full < 10.0, f"self-reported tracing tax {self_full:.2f}% >= 10%"
    assert self_sampled < 10.0
    if not SMOKE:
        assert pct_full < 25.0, f"measured tracing overhead {pct_full:.1f}% >= 25%"

    # Trend cell (ungated): the full-tracing tax across PRs.
    record_cell(TRAJECTORY, "tracing_tax_full_pct", self_full, unit="pct",
                gate=False,
                meta={"note": "self-reported 1-in-16 accounting, full "
                              "tracing, 3-rank case study"})
