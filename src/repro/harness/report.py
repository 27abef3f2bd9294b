"""EXPERIMENTS.md assembly.

Runs every figure experiment at a configurable scale and writes the
paper-vs-measured record the deliverables require.  Invoked by
``python -m repro.harness.report [--fast]`` or programmatically via
:func:`write_experiments_md`.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass

from repro.euler.ports import DriverParams
from repro.harness import figures
from repro.harness.casestudy import CaseStudyConfig
from repro.harness.sweeps import q_grid


@dataclass
class ReportScale:
    """Knobs trading fidelity for runtime."""

    q_points: int = 9
    #: Q range for the access-mode figures (4-5): spans the host cache
    qmax: int = 450_000
    #: Q range for the model figures (6-8): the paper's compute-bound range
    model_qmax: int = 160_000
    repeats: int = 2
    nprocs: int = 3
    steps: int = 6
    nx: int = 64
    ny: int = 64
    max_levels: int = 3

    @classmethod
    def fast(cls) -> "ReportScale":
        return cls(q_points=5, qmax=40_000, model_qmax=40_000, repeats=2,
                   steps=4, nx=48, ny=48)

    def case_config(self, flux: str = "efm") -> CaseStudyConfig:
        return CaseStudyConfig(
            params=DriverParams(
                nx=self.nx, ny=self.ny, max_levels=self.max_levels,
                steps=self.steps, regrid_every=max(2, self.steps // 2),
                max_patch_cells=2048,
            ),
            flux=flux,
        )


PAPER_CLAIMS = {
    "fig3": "~25% of time in MPI_Waitsome; g_proxy::compute and sc_proxy::compute dominate",
    "fig4": "sequential and strided States timings coincide for cache-resident arrays, diverge beyond",
    "fig5": "strided/sequential ratio ~1 for small Q rising to ~4 for the largest arrays",
    "fig6": "States mean scales as a power law, T = exp(1.19 log Q - 3.68) us",
    "fig7": "GodunovFlux mean linear, T = -963 + 0.315 Q us; sigma grows with Q",
    "fig8": "EFMFlux mean linear, T = -8.13 + 0.16 Q us; cheaper than Godunov; sigma shrinks",
    "fig9": "comm times cluster per (level, decomposition); scatter from network load; regrid shifts clusters",
    "fig10": "dual graph with invocation-count edges and model-predicted vertex weights; "
             "EFMFlux selected on cost, GodunovFlux preferred on accuracy (QoS)",
}


def write_experiments_md(path: str = "EXPERIMENTS.md",
                         scale: ReportScale | None = None) -> str:
    """Run all experiments and write the paper-vs-measured record."""
    scale = scale or ReportScale()
    qs = q_grid(scale.q_points, qmax=scale.qmax)
    qs_model = q_grid(scale.q_points, qmax=scale.model_qmax)

    sections: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.harness.report`.  Absolute numbers",
        "differ from the paper (the substrate is a simulator on different",
        "hardware); the reproduction criterion is the *shape* of each result",
        "(see DESIGN.md Section 4).",
        "",
        "Note on fitted families (Figs. 6-8): AIC selects between `linear`",
        "and `power`, which are near-degenerate on these Q ranges when the",
        "power exponent is ~1 (the paper's States exponent is 1.19, and its",
        "flux fits are linear); a swap between the two with R^2 > 0.98 on",
        "both is a tie, not a shape failure.",
        "",
    ]

    def add(name: str, title: str, body: str, verdict: str) -> None:
        sections.extend([
            f"## {title}",
            "",
            f"**Paper:** {PAPER_CLAIMS[name]}",
            "",
            "**Measured:**",
            "",
            "```",
            body,
            "```",
            "",
            f"**Shape check:** {verdict}",
            "",
        ])

    f3 = figures.fig3_profile(scale.case_config())
    top = [r[5] for r in f3.rows[1:4]]
    add("fig3", "Figure 3 — FUNCTION SUMMARY (mean)", f3.render(),
        f"MPI fraction {f3.mpi_fraction:.1%}; top non-main rows: {top}")
    sections.extend([
        "Note on the MPI share: message time is *modeled* with the",
        "paper-era network (DESIGN.md section 2) while compute is *measured*",
        "on this host. The tiled kernels (DESIGN.md section 7) made compute",
        "far cheaper than the paper's, so modeled message passing outweighs",
        "it here and the paper's ~25% is not expected at this scale.",
        "",
    ])

    f4 = figures.fig4_states_modes(qs, nprocs=scale.nprocs, repeats=scale.repeats)
    f5 = figures.fig5_stride_ratio(f4)
    add("fig4", "Figure 4 — States sequential vs strided", f4.render(),
        "strided >= sequential at large Q "
        f"(largest-Q ratio {f5.ratio[-1]:.2f})")
    add("fig5", "Figure 5 — stride penalty ratio", f5.render(),
        f"ratio rises from {f5.ratio[0]:.2f} (smallest Q) to {f5.ratio.max():.2f} (max)")

    f6 = figures.fig6_states_model(qs_model, nprocs=scale.nprocs, repeats=scale.repeats)
    add("fig6", "Figure 6 — States model (Eq. 1/2)", f6.render(),
        f"mean family: {f6.model.mean_fit.family} "
        f"(paper: power law), R^2={f6.model.mean_fit.r2:.3f}")

    f7 = figures.fig7_godunov_model(qs_model, nprocs=scale.nprocs, repeats=scale.repeats)
    f8 = figures.fig8_efm_model(qs_model, nprocs=scale.nprocs, repeats=scale.repeats)
    add("fig7", "Figure 7 — GodunovFlux model", f7.render(),
        f"mean family: {f7.model.mean_fit.family} (paper: linear), "
        f"R^2={f7.model.mean_fit.r2:.3f}")
    qtop = float(f7.q_bins[-1])
    ratio_gv = float(f7.model.predict_mean(qtop) / f8.model.predict_mean(qtop))
    add("fig8", "Figure 8 — EFMFlux model", f8.render(),
        f"Godunov/EFM mean cost at Q={int(qtop)}: {ratio_gv:.2f}x "
        "(paper: Godunov more expensive, especially at large Q)")

    f9 = figures.fig9_comm_levels(scale.case_config())
    add("fig9", "Figure 9 — ghost-update comm times per level", f9.render(),
        f"{len(f9.cluster_stats())} (level, decomposition) clusters with "
        "within-cluster scatter from modeled network jitter")
    means = ", ".join(
        f"L{lev} {statistics.fmean(f9.level_samples(lev)) / 1e3:.1f} ms"
        for lev in sorted({lev for _r, lev, _d, _t in f9.samples}))
    sections.extend([
        "Note on the message model (DESIGN.md section 19): a ghost exchange",
        "sends one message per peer, so a level's update pays the latency",
        "once per peer plus every byte it moves over the bandwidth.",
        "Messages in flight together overlap: `MPI_Waitsome` charges a",
        "drain the largest cost among its messages once, however the",
        "scheduler splits its completions into calls.",
        f"Per-level means ({means}) therefore follow the bytes each level",
        "moves, while each (level, decomposition) still forms its own",
        "jittered cluster, as in the paper.",
        "",
    ])

    f10 = figures.fig10_dual_graph(scale.case_config("efm"),
                                   scale.case_config("godunov"))
    add("fig10", "Figure 10 — dual graph & assembly optimization", f10.render(),
        f"cost pick: {f10.optimization.best.binding_names()['flux']}; "
        f"QoS pick: {f10.qos_optimization.best.binding_names()['flux']}")

    text = "\n".join(sections)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


if __name__ == "__main__":  # pragma: no cover - CLI entry
    fast = "--fast" in sys.argv
    out = write_experiments_md(scale=ReportScale.fast() if fast else None)
    print(out)
