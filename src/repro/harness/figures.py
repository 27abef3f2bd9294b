"""One experiment per paper figure (see DESIGN.md Section 4).

Every function returns a result object with the raw data, derived
statistics the reproduction criteria are checked against, and a
``render()`` method producing the text analog of the figure/table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cca.scmd import MAIN_TIMER, ScmdResult
from repro.euler.godunov import GodunovFluxComponent, GodunovKernel
from repro.euler.states import StatesKernel
from repro.harness.casestudy import (FLUX_PROXY, MESH_PROXY, STATES_PROXY,
                                     CaseStudyConfig, run_case_study)
from repro.harness.sweeps import SweepSamples, measure_mode_sweep
from repro.models.performance import PerformanceModel, bin_by_q, build_model
from repro.perf.dualgraph import build_dual, dual_to_composite
from repro.perf.optimizer import AssemblyOptimizer, OptimizationResult
from repro.tau.summary import function_summary, merge_snapshots, summary_rows
from repro.util.tabular import format_table


# --------------------------------------------------------------------- #
# Figure 3: FUNCTION SUMMARY profile
# --------------------------------------------------------------------- #
@dataclass
class Fig3Result:
    """Profile table + the headline fractions the paper reports."""

    summary_text: str
    rows: list[tuple[float, float, float, float, float, str]]
    mpi_fraction: float
    proxy_fractions: dict[str, float]
    scmd: ScmdResult

    def render(self) -> str:
        lines = [self.summary_text, ""]
        lines.append(f"fraction of runtime in MPI routines: {self.mpi_fraction:.1%}")
        for name, frac in sorted(self.proxy_fractions.items()):
            lines.append(f"fraction in {name}: {frac:.1%}")
        return "\n".join(lines)


def fig3_profile(config: CaseStudyConfig | None = None) -> Fig3Result:
    """Instrumented case-study run -> mean FUNCTION SUMMARY (Figure 3)."""
    config = config or CaseStudyConfig()
    scmd = run_case_study(config)
    merged = merge_snapshots(scmd.timer_snapshots)
    rows = summary_rows(merged, nranks=scmd.nranks, total_name=MAIN_TIMER)
    total_us = merged[MAIN_TIMER].inclusive_us
    mpi_us = sum(t.inclusive_us for t in merged.values() if t.group == "MPI")
    proxy_fracs = {
        t.name: t.inclusive_us / total_us
        for t in merged.values()
        if t.group == "proxied"
    }
    return Fig3Result(
        summary_text=function_summary(scmd.timer_snapshots, total_name=MAIN_TIMER),
        rows=rows,
        mpi_fraction=mpi_us / total_us if total_us > 0 else 0.0,
        proxy_fractions=proxy_fracs,
        scmd=scmd,
    )


# --------------------------------------------------------------------- #
# Figures 4-5: States dual-mode timings and their ratio
# --------------------------------------------------------------------- #
@dataclass
class Fig4Result:
    samples: SweepSamples
    nprocs: int
    batch: bool = False

    def mode_means(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """mode -> (Q bins, mean time) pooled over procs."""
        out = {}
        for mode in ("x", "y"):
            q, t = self.samples.select(mode=mode)
            qb, mean, _std, _n = bin_by_q(q, t)
            out[mode] = (qb, mean)
        return out

    def render(self) -> str:
        mm = self.mode_means()
        qx, tx = mm["x"]
        qy, ty = mm["y"]
        rows = [(int(q), f"{a:.1f}", f"{b:.1f}") for q, a, b in zip(qx, tx, ty)]
        sweep = "batched sweep" if self.batch else "line sweep"
        return format_table(
            ["Q", "sequential (X) us", "strided (Y) us"],
            rows,
            title=f"Figure 4: States execution time by access mode ({sweep})",
        )


def _states_invoke(nghost: int = 2, batch: bool = True) -> Callable:
    kernel = StatesKernel(nghost=nghost, batch=batch)
    return kernel.compute


def fig4_states_modes(
    qs: Sequence[int] | None = None, nprocs: int = 3, repeats: int = 3,
    seed: int = 0, batch: bool = False,
) -> Fig4Result:
    """Time States in sequential/strided modes over a Q sweep (Figure 4).

    The default ``batch=False`` measures the historical line-at-a-time
    sweep whose sequential/strided asymmetry the paper's Figures 4-5
    characterize.  ``batch=True`` measures the production batched path:
    its cache-blocked tiles shrink the strided penalty, so the asymmetry
    survives but is smaller — the benchmark records both.
    """
    samples = measure_mode_sweep(
        _states_invoke(batch=batch), qs, nprocs=nprocs, repeats=repeats, seed=seed
    )
    return Fig4Result(samples=samples, nprocs=nprocs, batch=batch)


@dataclass
class Fig5Result:
    q: np.ndarray
    ratio: np.ndarray

    def render(self) -> str:
        rows = [(int(q), f"{r:.2f}") for q, r in zip(self.q, self.ratio)]
        return format_table(
            ["Q", "strided/sequential"],
            rows,
            title="Figure 5: ratio of strided to sequential States timings",
        )


def fig5_stride_ratio(fig4: Fig4Result | None = None, **kwargs) -> Fig5Result:
    """Strided/sequential ratio vs Q (Figure 5; reuses Figure 4's sweep)."""
    fig4 = fig4 or fig4_states_modes(**kwargs)
    mm = fig4.mode_means()
    qx, tx = mm["x"]
    qy, ty = mm["y"]
    if not np.array_equal(qx, qy):
        raise RuntimeError("mode sweeps produced different Q bins")
    return Fig5Result(q=qx, ratio=ty / tx)


# --------------------------------------------------------------------- #
# Figures 6-8 / Eqs. 1-2: component performance models
# --------------------------------------------------------------------- #
@dataclass
class ModelFigResult:
    """Mean+std vs Q with fitted models, for one component (Figs 6/7/8)."""

    name: str
    samples: SweepSamples
    q_bins: np.ndarray
    mean_us: np.ndarray
    std_us: np.ndarray
    model: PerformanceModel

    def render(self) -> str:
        rows = [
            (int(q), f"{m:.1f}", f"{s:.1f}",
             f"{float(self.model.predict_mean(q)):.1f}")
            for q, m, s in zip(self.q_bins, self.mean_us, self.std_us)
        ]
        table = format_table(
            ["Q", "mean us", "std us", "model mean us"],
            rows,
            title=f"{self.name}: execution time vs array size",
        )
        eq1 = f"Eq.1 analog (mean): {self.model.mean_fit.formula}"
        eq2 = (
            f"Eq.2 analog (std):  {self.model.std_fit.formula}"
            if self.model.std_fit is not None
            else "Eq.2 analog (std):  (no sigma model)"
        )
        return "\n".join([table, eq1, eq2])


def _model_fig(
    name: str,
    invoke: Callable,
    qs: Sequence[int] | None,
    nprocs: int,
    repeats: int,
    seed: int,
    mean_families: tuple[str, ...],
    quality: float = 1.0,
) -> ModelFigResult:
    samples = measure_mode_sweep(invoke, qs, nprocs=nprocs, repeats=repeats, seed=seed)
    q, t = samples.mode_averaged()
    qb, mean, std, _ = bin_by_q(q, t, min_count=2)
    model = build_model(name, q, t, mean_families=mean_families, quality=quality)
    return ModelFigResult(name=name, samples=samples, q_bins=qb,
                          mean_us=mean, std_us=std, model=model)


def fig6_states_model(qs=None, nprocs: int = 3, repeats: int = 3,
                      seed: int = 0) -> ModelFigResult:
    """States mean/std vs Q with a power-law mean fit (Figure 6, Eq. 1)."""
    return _model_fig("States", _states_invoke(), qs, nprocs, repeats, seed,
                      mean_families=("power", "linear"))


def _flux_invoke(flux_kernel, nghost: int = 2) -> Callable:
    """Flux-only timing: interface states are precomputed outside the timer."""
    states = StatesKernel(nghost=nghost)
    cache: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}

    def invoke(U: np.ndarray, mode: str):
        key = (id(U), mode)
        if key not in cache:
            if len(cache) > 64:
                cache.clear()
            cache[key] = states.compute(U, mode)
        wl, wr = cache[key]
        return flux_kernel.compute(wl, wr, mode)

    return invoke


def fig7_godunov_model(qs=None, nprocs: int = 3, repeats: int = 3,
                       seed: int = 0) -> ModelFigResult:
    """GodunovFlux mean/std vs Q with a linear mean fit (Figure 7, Eq. 1)."""
    return _model_fig(
        "GodunovFlux", _flux_invoke(GodunovKernel()), qs, nprocs, repeats, seed,
        mean_families=("linear", "power"), quality=GodunovFluxComponent.QUALITY,
    )


def fig8_efm_model(qs=None, nprocs: int = 3, repeats: int = 3,
                   seed: int = 0) -> ModelFigResult:
    """EFMFlux mean/std vs Q with a linear mean fit (Figure 8, Eq. 1)."""
    from repro.euler.efm import EFMFluxComponent, EFMKernel

    return _model_fig(
        "EFMFlux", _flux_invoke(EFMKernel()), qs, nprocs, repeats, seed,
        mean_families=("linear", "power"), quality=EFMFluxComponent.QUALITY,
    )


# --------------------------------------------------------------------- #
# Figure 9: per-level ghost-update communication times
# --------------------------------------------------------------------- #
@dataclass
class Fig9Result:
    """(rank, level, decomposition generation, mpi_us) samples."""

    samples: list[tuple[int, int, int, float]]
    nranks: int
    scmd: ScmdResult

    def cluster_stats(self) -> dict[tuple[int, int], tuple[float, float, int]]:
        """(level, decomp) -> (mean_us, std_us, n) pooled over ranks."""
        groups: dict[tuple[int, int], list[float]] = {}
        for _rank, level, decomp, t in self.samples:
            groups.setdefault((level, decomp), []).append(t)
        return {
            k: (float(np.mean(v)), float(np.std(v)), len(v))
            for k, v in groups.items()
        }

    def level_samples(self, level: int, rank: int | None = None) -> list[float]:
        return [
            t for r, lev, _d, t in self.samples
            if lev == level and (rank is None or r == rank)
        ]

    def render(self) -> str:
        rows = [
            (lev, dec, f"{m:.1f}", f"{s:.1f}", n)
            for (lev, dec), (m, s, n) in sorted(self.cluster_stats().items())
        ]
        return format_table(
            ["level", "decomposition", "mean us", "std us", "n"],
            rows,
            title="Figure 9: ghost-cell update message-passing time clusters",
        )


def fig9_comm_levels(config: CaseStudyConfig | None = None) -> Fig9Result:
    """Per-level ghost-update MPI times with one mid-run regrid (Figure 9)."""
    config = config or CaseStudyConfig()
    if not config.instrument:
        raise ValueError("Figure 9 requires an instrumented run")
    scmd = run_case_study(config)
    samples: list[tuple[int, int, int, float]] = []
    for rank, harvest in enumerate(scmd.extras):
        rec = harvest.records.get((MESH_PROXY, "ghost_update"))
        if rec is None:
            raise RuntimeError("no AMRMesh ghost_update record; proxy missing?")
        for inv in rec.invocations:
            samples.append(
                (rank, int(inv.params["level"]), int(inv.params["decomp"]), inv.mpi_us)
            )
    return Fig9Result(samples=samples, nranks=scmd.nranks, scmd=scmd)


# --------------------------------------------------------------------- #
# Figure 10: the application dual and assembly optimization
# --------------------------------------------------------------------- #
@dataclass
class Fig10Result:
    dual_nodes: dict[str, dict]
    dual_edges: list[tuple[str, str, int]]
    optimization: OptimizationResult
    qos_optimization: OptimizationResult
    flux_models: dict[str, PerformanceModel]

    def render(self) -> str:
        lines = ["Figure 10: application dual (vertex weights in us)"]
        for name, data in sorted(self.dual_nodes.items()):
            lines.append(
                f"  {name}: compute={data.get('compute_us', 0.0):.1f} "
                f"comm={data.get('comm_us', 0.0):.1f} "
                f"invocations={data.get('invocations', 0)}"
            )
        for u, v, n in sorted(self.dual_edges):
            lines.append(f"  edge {u} -> {v}: {n} invocations")
        lines.append("")
        lines.append("pure-performance selection:")
        lines.append(self.optimization.summary())
        lines.append("QoS-weighted selection (accuracy matters):")
        lines.append(self.qos_optimization.summary())
        return "\n".join(lines)


def qos_flip_weight(plain: OptimizationResult) -> float | None:
    """Smallest QoS weight at which the cost winner stops winning.

    Solves ``cost_b (1 + w (1-q_b)) = cost_o (1 + w (1-q_o))`` for each
    runner-up o; returns the smallest positive solution, or None when no
    weight can flip the choice (the winner already has maximal quality).
    """
    best = plain.ranked[0]
    candidates = []
    for other in plain.ranked[1:]:
        denom = best.cost_us * (1.0 - best.quality) - other.cost_us * (1.0 - other.quality)
        if denom > 0:
            w = (other.cost_us - best.cost_us) / denom
            if w > 0:
                candidates.append(w)
    return min(candidates) if candidates else None


def fig10_dual_graph(
    config_efm: CaseStudyConfig | None = None,
    config_godunov: CaseStudyConfig | None = None,
    qos_weight: float | None = None,
) -> Fig10Result:
    """Build the dual from recorded runs; optimize the flux slot.

    Runs the case study once per flux implementation, fits each
    implementation's performance model from its Mastermind records, builds
    the EFM run's dual/composite with the flux node as a free slot, and
    selects implementations with and without a QoS weight — EFMFlux wins on
    cost, GodunovFlux under a sufficient accuracy weight (the paper's
    Section 5 trade-off).
    """
    from repro.euler.efm import EFMFluxComponent

    config_efm = config_efm or CaseStudyConfig(flux="efm")
    config_godunov = config_godunov or CaseStudyConfig(flux="godunov")
    if config_efm.flux != "efm" or config_godunov.flux != "godunov":
        raise ValueError("configs must select efm and godunov respectively")

    run_e = run_case_study(config_efm)
    run_g = run_case_study(config_godunov)
    mm_e = run_e.extras[0].mastermind
    mm_g = run_g.extras[0].mastermind

    model_states = mm_e.build_performance_model(
        STATES_PROXY, "compute", mean_families=("power", "linear"), min_bin_count=2
    )
    model_efm = mm_e.build_performance_model(
        FLUX_PROXY, "compute", mean_families=("linear", "power"), min_bin_count=2
    )
    model_efm = PerformanceModel(
        name="EFMFlux", mean_fit=model_efm.mean_fit, std_fit=model_efm.std_fit,
        quality=EFMFluxComponent.QUALITY,
    )
    model_god = mm_g.build_performance_model(
        FLUX_PROXY, "compute", mean_families=("linear", "power"), min_bin_count=2
    )
    model_god = PerformanceModel(
        name="GodunovFlux", mean_fit=model_god.mean_fit, std_fit=model_god.std_fit,
        quality=GodunovFluxComponent.QUALITY,
    )

    dual = build_dual(
        mm_e, models={f"{STATES_PROXY}::compute()": model_states}
    )
    composite = dual_to_composite(
        mm_e,
        slots={FLUX_PROXY: "flux"},
        models={f"{STATES_PROXY}::compute()": model_states},
    )
    optimizer = AssemblyOptimizer(composite, {"flux": [model_efm, model_god]})
    plain = optimizer.optimize(qos_weight=0.0)
    if qos_weight is None:
        # Just past the flip point, so the accuracy-preferring choice wins.
        flip = qos_flip_weight(plain)
        qos_weight = 1.25 * flip if flip is not None else 0.0
    qos = optimizer.optimize(qos_weight=qos_weight)
    return Fig10Result(
        dual_nodes={n: dict(dual.nodes[n]) for n in dual.nodes},
        dual_edges=[(u, v, d["count"]) for u, v, d in dual.edges(data=True)],
        optimization=plain,
        qos_optimization=qos,
        flux_models={"efm": model_efm, "godunov": model_god},
    )
