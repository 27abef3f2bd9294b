"""Scalability sweeps: message passing vs computation, 1 to 64 ranks.

Paper Section 5: "message passing times are generally comparable to the
purely computational loads ... and it is unlikely that the code, in the
current configuration ... will scale well.  This is also borne out by
Figure 3 where almost a quarter of the time is shown to be spent in
message passing."

Three benches:

* the paper-scale fixed-size run at P = 1, 2, 3 (the original Figure 3
  shape check);
* strong- and weak-scaling curves to P = 64 on the thread backend,
  whose modeled (virtual-microsecond) MPI costs land in the
  ``BENCH_scaling.json`` trajectory as gated cells — deterministic given
  the seed, so CI can hold them to a tight regression tolerance;
* a thread vs mp-shm backend comparison at P up to 64: same modeled
  world, real processes — wall-clock recorded ungated (noise), modeled
  results asserted identical, and the parallel speedup asserted only on
  hosts with enough cores for the comparison to mean anything.
"""

from __future__ import annotations

import dataclasses
import math
import os

import pytest
from conftest import SMOKE, write_out

from repro.bench import record_cell
from repro.cca.scmd import MAIN_TIMER
from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.tau.summary import merge_snapshots
from repro.util.tabular import format_table
from repro.util.timebase import now_us

TRAJECTORY = os.path.join(os.path.dirname(__file__), "out",
                          "BENCH_scaling.json")

#: P values for the 64-rank curves (SMOKE drops the 64-rank legs so CI
#: smoke passes stay in seconds)
CURVE_RANKS = (4, 16) if SMOKE else (4, 16, 64)

NETWORK = NetworkModel(latency_us=3000.0, bandwidth_bytes_per_us=4.0,
                       jitter_sigma=0.25)


def scaled_config(nranks: int, nx: int, backend: str = "thread",
                  steps: int = 2) -> CaseStudyConfig:
    return CaseStudyConfig(
        params=DriverParams(nx=nx, ny=nx, max_levels=2, steps=steps,
                            regrid_every=2, max_patch_cells=1024),
        nranks=nranks, seed=0, network=NETWORK, backend=backend)


def mpi_fraction(result) -> float:
    merged = merge_snapshots(result.timer_snapshots)
    total = merged[MAIN_TIMER].inclusive_us
    mpi = sum(t.inclusive_us for t in merged.values() if t.group == "MPI")
    return mpi / total if total > 0 else 0.0


def modeled_mpi_us(result) -> float:
    """Max per-rank modeled MPI time."""
    return max(acct.total_us() for acct in result.world.accounting)


def test_scaling_ranks(benchmark, bench_config, out_dir):
    holder = {}

    def run():
        for p in (1, 2, 3):
            cfg = dataclasses.replace(
                bench_config, nranks=p,
                params=dataclasses.replace(bench_config.params, steps=3),
            )
            holder[p] = run_case_study(cfg)

    benchmark.pedantic(run, rounds=1, iterations=1)

    fracs = {p: mpi_fraction(res) for p, res in holder.items()}
    rows = [(p, f"{f:.1%}") for p, f in sorted(fracs.items())]
    write_out(out_dir, "scaling_ranks.txt", format_table(
        ["ranks", "MPI fraction of runtime"], rows,
        title="Fixed-size scaling: message-passing share vs processor count",
    ))

    # Shape: multi-rank runs pay a visible MPI share; P=1 pays ~nothing
    # through the wire (collectives with one rank are floor-cost only).
    assert fracs[1] < fracs[3]
    assert fracs[3] > 0.05
    benchmark.extra_info["mpi_fractions"] = {p: round(f, 4) for p, f in fracs.items()}


def test_scaling_curves_to_64(benchmark, out_dir):
    """Strong (fixed 32x32) and weak (nx ~ sqrt(P)) curves on the thread
    backend; modeled MPI cost per P becomes the gated trajectory cells."""
    weak_nx = {4: 24, 16: 48, 64: 96}
    strong, weak = {}, {}

    def run():
        for p in CURVE_RANKS:
            strong[p] = run_case_study(scaled_config(p, nx=32))
            weak[p] = run_case_study(scaled_config(p, nx=weak_nx[p]))

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, curve in (("strong", strong), ("weak", weak)):
        for p, res in sorted(curve.items()):
            us = modeled_mpi_us(res)
            frac = mpi_fraction(res)
            nx = 32 if label == "strong" else weak_nx[p]
            rows.append((label, p, f"{nx}x{nx}", f"{us / 1e3:.1f}",
                         f"{frac:.1%}"))
            record_cell(
                TRAJECTORY, f"scmd_{label}_p{p}_modeled_mpi_us", us,
                meta={"ranks": p, "nx": nx,
                      "mpi_fraction": round(frac, 4)})
    write_out(out_dir, "scaling_curves.txt", format_table(
        ["curve", "ranks", "grid", "modeled MPI (ms)", "MPI fraction"], rows,
        title="Strong and weak scaling to 64 ranks (thread backend)",
    ))

    # Fixed problem + more ranks = more boundary traffic: the strong curve
    # must grow monotonically in modeled comm cost.
    s = [modeled_mpi_us(strong[p]) for p in sorted(strong)]
    assert s == sorted(s), s


#: walls measured by the backend-comparison bench, consumed by the
#: speedup-gate test below (same module, runs later in file order)
_BACKEND_WALLS: dict[tuple[str, int], float] = {}


def test_scaling_backends_thread_vs_mpshm(benchmark, out_dir):
    """Same job on both backends: identical modeled outcome, real
    processes vs threads for wall-clock.  Wall numbers are recorded
    ungated; the >2x speedup claim is gated separately in
    :func:`test_mpshm_speedup_multicore` (the backends are
    indistinguishable on one core)."""
    walls = _BACKEND_WALLS
    runs: dict[tuple[str, int], object] = {}

    def run():
        for p in CURVE_RANKS:
            for backend in ("thread", "mp-shm"):
                t0 = now_us()
                runs[(backend, p)] = run_case_study(
                    scaled_config(p, nx=32, backend=backend))
                walls[(backend, p)] = (now_us() - t0) / 1e6

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for p in CURVE_RANKS:
        rt, rp = runs[("thread", p)], runs[("mp-shm", p)]
        # Modeled conformance at scale: same physics, same modeled comm.
        for r in range(p):
            assert rt.extras[r].dt_history == rp.extras[r].dt_history, p
        # Equal up to the rounding of Waitsome's per-call increments,
        # which telescope to the drain's maximum only in exact arithmetic.
        assert math.isclose(modeled_mpi_us(rt), modeled_mpi_us(rp),
                            rel_tol=1e-12), p
        wt, wp = walls[("thread", p)], walls[("mp-shm", p)]
        rows.append((p, f"{wt:.2f}", f"{wp:.2f}", f"{wt / wp:.2f}x"))
        for backend in ("thread", "mp-shm"):
            record_cell(
                TRAJECTORY, f"scmd_wall_{backend}_p{p}_s",
                walls[(backend, p)], unit="s", gate=False,
                meta={"ranks": p, "cpu_count": os.cpu_count()})
    write_out(out_dir, "scaling_backends.txt", format_table(
        ["ranks", "thread wall (s)", "mp-shm wall (s)", "speedup"], rows,
        title="Thread vs mp-shm backend wall clock (identical modeled runs)",
    ))

    benchmark.extra_info["walls_s"] = {
        f"{b}_p{p}": round(w, 3) for (b, p), w in walls.items()}


def _note_speedup_outcome(out_dir: str, line: str) -> None:
    """Append the speedup-gate verdict to the scaling out-file, so a
    re-anchor reading ``scaling_ranks.txt`` can tell "never ran" from
    "passed" without digging through CI logs."""
    with open(os.path.join(out_dir, "scaling_ranks.txt"), "a",
              encoding="utf-8") as fh:
        fh.write(f"mp-shm >2x speedup gate: {line}\n")


def test_mpshm_speedup_multicore(out_dir):
    """The mp-shm backend must beat the GIL by >2x — on real parallel
    hardware.  On fewer than 8 cores the claim is untestable, and the
    skip is *loud*: an explicit reason plus a never-ran note in the
    out-file (a silent pass here used to be indistinguishable from a
    pass on a 64-core box)."""
    cores = os.cpu_count() or 1
    if cores < 8:
        _note_speedup_outcome(
            out_dir, f"NEVER RAN on this host ({cores} core(s) < 8)")
        pytest.skip(f"mp-shm >2x speedup assert needs >= 8 cores, "
                    f"host has {cores}; recorded as never-ran in "
                    f"scaling_ranks.txt")
    if not _BACKEND_WALLS:
        pytest.skip("backend-comparison bench did not run in this session; "
                    "no wall-clock samples to judge")
    # Compute-bound cell: real processes must beat the GIL by >2x.
    p = max(p for p in CURVE_RANKS if p <= cores)
    ratio = _BACKEND_WALLS[("thread", p)] / _BACKEND_WALLS[("mp-shm", p)]
    _note_speedup_outcome(
        out_dir, f"ran at P={p} on {cores} cores: {ratio:.2f}x "
                 f"{'PASS' if ratio > 2.0 else 'FAIL'}")
    assert ratio > 2.0, _BACKEND_WALLS
