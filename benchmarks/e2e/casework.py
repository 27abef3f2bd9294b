"""Case-study workloads: repetitions, output checks, ledger and ladder.

One repetition is one call of the public launcher
:func:`repro.cca.scmd.run_scmd` over
:func:`repro.harness.casestudy.compose_case_study`; everything the
harness learns about a run comes back through ``extract`` (per-patch
hashes, scalar sums, layer counters and, in a traced run, the rank's
span fold from :mod:`spans`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import spans

from repro.analysis.sanitize import SanitizerConfig
from repro.cca.framework import Framework
from repro.cca.scmd import MAIN_TIMER, ScmdResult, run_scmd
from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, compose_case_study
from repro.mpi.network import NetworkModel
from repro.obs.runtime import ObsConfig
from repro.util.rng import make_rng
from repro.util.timebase import now_us

#: the AMR mesh shared by amr_bare, layers_on and mpshm_bare: three
#: levels, one mid-run regrid (two decompositions, as in the paper's
#: Figure 9), small patches so bookkeeping and messages carry weight
MESH = DriverParams(nx=64, ny=64, max_levels=3, steps=3, regrid_every=2,
                    max_patch_cells=1024)
#: one unrefined patch on one rank: flux kernels and nothing else
KERNEL = DriverParams(nx=256, ny=256, max_levels=1, steps=8, regrid_every=0,
                      blocks=(1, 1), max_patch_cells=65536)

#: ladder rungs, bottom to top; each adds one opt-in layer to the one below
RUNGS = ("bare", "proxies_tau", "obs", "sanitize", "resilience", "checkpoint")

#: MPI routines whose call count depends on arrival order, not on the plan
_TIMING_DEPENDENT = ("MPI_Waitsome",)


@dataclass(frozen=True)
class CaseWorkload:
    """One named case-study configuration."""

    name: str
    params: DriverParams
    flux: str
    nranks: int
    backend: str = "thread"
    #: index into RUNGS: how many opt-in layers are switched on
    rung: int = 0

    def smoke(self) -> "CaseWorkload":
        small = dataclasses.replace(
            self.params, steps=2, nx=min(self.params.nx, 128),
            ny=min(self.params.ny, 128))
        return dataclasses.replace(self, params=small)


WORKLOADS = {
    w.name: w for w in (
        CaseWorkload("amr_bare", MESH, "efm", nranks=3),
        CaseWorkload("kernel_godunov", KERNEL, "godunov", nranks=1),
        CaseWorkload("layers_on", MESH, "efm", nranks=3,
                     rung=len(RUNGS) - 1),
        CaseWorkload("mpshm_bare", MESH, "efm", nranks=2, backend="mp-shm"),
    )
}


def build_config(work: CaseWorkload, seed: int, rung: int,
                 ckpt_dir: str) -> CaseStudyConfig:
    """The run's inputs, from the seed alone.

    The seed scales the heavy gas's density by a few percent, so every
    seed computes different fields (another digest), and keys the network
    jitter stream.  It leaves the shock and the interface where they are:
    moving them by +-0.03 changed the patch layout and with it
    ``run_wall_s`` by 40% from seed to seed, and a benchmark whose seeds
    do different amounts of work cannot resolve a 10% regression.
    """
    scale = 1.0 + 0.05 * float(make_rng(seed).uniform(-1.0, 1.0))
    params = dataclasses.replace(
        work.params, density_ratio=work.params.density_ratio * scale)
    return CaseStudyConfig(
        params=params, flux=work.flux, nranks=work.nranks, seed=seed,
        network=NetworkModel(), backend=work.backend,
        instrument=rung >= 1, proxy_rhs=True,
        observe=ObsConfig() if rung >= 2 else None,
        sanitize=SanitizerConfig() if rung >= 3 else None,
        resilience=ResiliencePolicy() if rung >= 4 else None,
        checkpoint=CheckpointConfig(ckpt_dir, every=2) if rung >= 5 else None,
    )


# ------------------------------------------------------------ one repetition
def _rank_extract(fw: Framework) -> dict[str, Any]:
    """Runs on every rank after ``go``; returns plain picklable data."""
    trace = spans.end_rank()
    mesh = fw.component("mesh")
    driver = fw.component("driver")
    h = mesh.hierarchy()
    dx_dy = [h.dx(lev) for lev in range(h.max_levels)]
    patches = []
    for lev in range(h.max_levels):
        for p in h.local_patches(lev):
            sha = hashlib.sha256()
            for f in h.fields:
                sha.update(np.ascontiguousarray(p.interior(f)).tobytes())
            area = dx_dy[lev][0] * dx_dy[lev][1]
            b = p.box
            patches.append((lev, (b.ilo, b.jlo, b.ihi, b.jhi), sha.hexdigest(),
                            float(p.interior("rho").sum()) * area,
                            float(p.interior("E").sum()) * area))
    out: dict[str, Any] = {
        "trace": trace,
        "patches": patches,
        "patches_per_level": [len(level) for level in h.levels],
        "dt_history": list(driver.dt_history),
        "proxy_calls": 0, "checkpoint_bytes": 0, "checkpoint_saves": 0,
    }
    if "mastermind" in fw.instance_names():
        out["proxy_calls"] = sum(
            len(rec) for rec in fw.component("mastermind").all_records())
    ckpt = getattr(driver, "checkpointer", None)
    if ckpt is not None:
        out["checkpoint_bytes"] = ckpt.bytes_written
        out["checkpoint_saves"] = len(ckpt.saved_steps)
    return out


def cpu_s() -> float:
    """CPU seconds so far: this process and the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Rep:
    """One repetition's measurements and the facts its checks compare.

    The launcher's own result (world, tracers, timers) is folded into
    ``counters`` and dropped, so finished repetitions hold no memory
    that would show up in ``peak_rss_mb``.
    """

    wall_s: float
    cpu_s: float
    #: what each rank's ``_rank_extract`` returned
    extras: list[dict[str, Any]]
    digest: str
    #: per rank {routine: calls}, timing-dependent routines left out
    mpi_calls: list[dict[str, int]]
    #: modeled MPI time and the opt-in layers' own counts
    counters: dict[str, float]
    #: what made this repetition fail its checks (empty = it passed)
    problems: list[str] = field(default_factory=list)


def hierarchy_digest(extras: list[dict[str, Any]]) -> str:
    """sha256 over every patch's interior bytes, keyed by level and box.

    Independent of which rank owns a patch, so one mesh gives one digest
    on any rank count and backend.
    """
    sha = hashlib.sha256()
    for lev, box, patch_sha, _m, _e in sorted(
            p for ex in extras for p in ex["patches"]):
        sha.update(f"{lev}:{box}:{patch_sha};".encode())
    return sha.hexdigest()


def run_rep(cfg: CaseStudyConfig, traced: bool = False) -> Rep:
    """One ``run_scmd`` call, timed from outside and checked on its own."""

    def compose(fw: Framework) -> None:
        if traced:
            spans.begin_rank()
        compose_case_study(fw, cfg)

    gc.collect()
    cpu0 = cpu_s()
    t0 = now_us()
    res = run_scmd(
        cfg.nranks, compose, go_instance="driver", network=cfg.network,
        seed=cfg.seed, extract=_rank_extract, timeout_s=cfg.timeout_s,
        resilience=cfg.resilience, observe=cfg.observe,
        sanitize=cfg.sanitize, backend=cfg.backend)
    wall_s = (now_us() - t0) / 1e6
    cpu = cpu_s() - cpu0
    rep = Rep(
        wall_s=wall_s, cpu_s=cpu, extras=res.extras,
        digest=hierarchy_digest(res.extras),
        mpi_calls=[{routine: st.calls
                    for routine, st in acct.routine_totals().items()
                    if routine not in _TIMING_DEPENDENT}
                   for acct in res.world.accounting],
        counters=_layer_counters(res))
    if any(r != 0 for r in res.results):
        rep.problems.append(f"rank results {res.results}")
    dts = [ex["dt_history"] for ex in res.extras]
    if not all(math.isfinite(dt) for dt in dts[0]):
        rep.problems.append("non-finite dt")
    if any(d != dts[0] for d in dts[1:]):
        rep.problems.append("dt_history differs between ranks")
    return rep


def check_against(rep: Rep, first: Rep, counts: bool = True) -> None:
    """A repetition must reproduce the first one's fields and, unless it
    ran with other layers switched on (``counts=False``), its messages."""
    if rep.digest != first.digest:
        rep.problems.append(
            f"digest {rep.digest[:12]} != first repetition's "
            f"{first.digest[:12]}")
    if counts and rep.mpi_calls != first.mpi_calls:
        rep.problems.append("MPI call counts differ from first repetition")


def scalar_summary(rep: Rep) -> dict[str, Any]:
    """Tolerance-comparable facts about the final hierarchy."""
    patches = sorted(p for ex in rep.extras for p in ex["patches"])
    return {
        "patches_per_level": rep.extras[0]["patches_per_level"],
        "mass": math.fsum(p[3] for p in patches),
        "energy": math.fsum(p[4] for p in patches),
    }


# -------------------------------------------------------------- the ledger
def _layer_counters(res: ScmdResult) -> dict[str, float]:
    """Modeled MPI time, and the counts the opt-in layers keep themselves
    (all zero on a bare run)."""
    world = res.world
    out = {
        "mpi.modeled_us": sum(a.total_us() for a in world.accounting),
        "perf.proxy.calls": sum(ex["proxy_calls"] for ex in res.extras),
        "tau.timer.calls": sum(
            st.calls for snap in res.timer_snapshots
            for name, st in snap.items() if name != MAIN_TIMER),
        "obs.spans": 0.0, "obs.dropped": 0.0, "obs.self_tax_pct": 0.0,
        "analysis.sanitize.findings": (
            len(world.sanitizer.findings) if world.sanitizer else 0),
        "faults.retries": sum(st.retry_rounds for st in world.resilience),
        "faults.checkpoint.bytes": sum(
            ex["checkpoint_bytes"] for ex in res.extras),
        "faults.checkpoint.saves": max(
            ex["checkpoint_saves"] for ex in res.extras),
    }
    if world.obs is not None:
        reports = [ro.tracer.overhead_report() for ro in world.obs]
        main_us = sum(snap[MAIN_TIMER].inclusive_us
                      for snap in res.timer_snapshots)
        out["obs.spans"] = sum(r["spans"] for r in reports)
        out["obs.dropped"] = sum(r["dropped"] for r in reports)
        out["obs.self_tax_pct"] = (
            100.0 * sum(r["self_overhead_us"] for r in reports) / main_us)
    return {k: float(v) for k, v in out.items()}


#: spans reported as ``<span>.self_s`` (seconds, mean over ranks)
_TIMED_SPANS = (
    "euler.states", "euler.efm", "euler.godunov", "euler.flux_divergence",
    "euler.rk2", "amr.plan", "amr.execute_transfers", "amr.ghost_update",
    "amr.sync_down", "amr.regrid", "mpi.isend", "mpi.irecv", "mpi.waitsome",
    "mpi.collectives", "rank.other")
#: spans also reported as ``<span>.calls`` (summed over ranks)
_COUNTED_SPANS = ("amr.plan", "amr.regrid", "mpi.isend", "mpi.waitsome",
                  "mpi.collectives")
_KERNEL_SPANS = ("euler.states", "euler.efm", "euler.godunov")
_WORK_COUNTS = ("euler.cell_updates", "euler.bytes_computed",
                "amr.transfers", "mpi.bytes_computed")
#: ledger counts that must repeat exactly between traced repetitions
#: (``mpi.waitsome.calls`` is not one: it follows message arrival order)
EXACT_COUNTS = ("euler.kernel.calls", "euler.cell_updates",
                "euler.bytes_computed", "amr.plan.calls", "amr.transfers",
                "amr.regrid.calls", "amr.patches", "mpi.isend.calls",
                "mpi.collectives.calls", "mpi.bytes_computed")


def ledger(rep: Rep, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    traces = [ex["trace"] for ex in rep.extras]
    nranks = len(traces)

    def self_s(span: str) -> float:
        return sum(t["self_us"].get(span, 0.0) for t in traces) / nranks / 1e6

    def calls(span: str) -> float:
        return float(sum(t["calls"].get(span, 0) for t in traces))

    out = {f"{span}.self_s": self_s(span) for span in _TIMED_SPANS}
    out.update({f"{span}.calls": calls(span) for span in _COUNTED_SPANS})
    out["euler.kernel.calls"] = sum(calls(s) for s in _KERNEL_SPANS)
    for key in _WORK_COUNTS:
        out[key] = float(sum(t["counts"].get(key, 0.0) for t in traces))
    out["amr.patches"] = float(sum(rep.extras[0]["patches_per_level"]))
    out["mpi.msgs_per_step"] = out["mpi.isend.calls"] / steps
    out["rank.total_s"] = sum(t["root_us"] for t in traces) / nranks / 1e6
    # Launch cost: what run_scmd spends outside the slowest rank's work
    # (world or fork + ring set-up, join, result pipe).
    out["cca.launch.self_s"] = (
        rep.wall_s - max(t["root_us"] for t in traces) / 1e6)
    out.update(rep.counters)
    return out


def layer_shares(led: dict[str, float]) -> dict[str, float]:
    """Share of rank time per layer group, in percent of ``rank.total_s``."""
    total = led["rank.total_s"]
    groups = {"euler": 0.0, "amr": 0.0, "mpi": 0.0, "rank": 0.0}
    for span in _TIMED_SPANS:
        groups[span.split(".", 1)[0]] += led[f"{span}.self_s"]
    return {g: 100.0 * v / total for g, v in groups.items()}


# ---------------------------------------------------------------- the ladder
def run_ladder(work: CaseWorkload, seed: int, ckpt_dir: str,
               rounds: int) -> tuple[dict[str, float], list[Rep]]:
    """Price each opt-in layer as a paired delta over the rung below.

    Every round runs all rungs once, starting from a different rung each
    round so no rung always inherits the same predecessor's cache and
    allocator state; a rung's cost is the median over rounds of
    (its wall - the wall of the rung below in the same round).
    """
    configs = [build_config(work, seed, rung, ckpt_dir)
               for rung in range(len(RUNGS))]
    walls: list[list[float]] = [[] for _ in RUNGS]
    reps: list[Rep] = []
    for rnd in range(rounds):
        order = [(rnd * 2 + k) % len(RUNGS) for k in range(len(RUNGS))]
        for rung in order:
            rep = run_rep(configs[rung])
            walls[rung].append(rep.wall_s)
            reps.append(rep)
    med = [statistics.median(w) for w in walls]
    out: dict[str, float] = {}
    for rung in range(1, len(RUNGS)):
        deltas = [walls[rung][r] - walls[rung - 1][r] for r in range(rounds)]
        out[f"layer.{RUNGS[rung]}.cost_s"] = statistics.median(deltas)
    # Ratios, each over a stated base: obs over the rung below it,
    # everything over the bare run.
    out["layer.obs.cost_pct"] = 100.0 * out["layer.obs.cost_s"] / med[1]
    all_delta = [walls[-1][r] - walls[0][r] for r in range(rounds)]
    out["layer.all.cost_pct"] = 100.0 * statistics.median(all_delta) / med[0]
    return out, reps
