"""Reproduction-criteria integration tests (DESIGN.md Section 4).

Small-scale versions of the per-figure shape checks: who wins, what grows,
where the structure lies.  Absolute values are host-dependent and not
asserted.
"""

import numpy as np
import pytest

from repro.euler.ports import DriverParams
from repro.harness import (fig4_states_modes, fig5_stride_ratio,
                           fig6_states_model, fig7_godunov_model,
                           fig8_efm_model, fig9_comm_levels, fig10_dual_graph,
                           fig3_profile, q_grid)
from repro.harness.casestudy import CaseStudyConfig
from repro.mpi.network import NetworkModel

QS = q_grid(5, 2_000, 60_000)


def small_config(flux="efm", jitter=0.25, steps=4, regrid_every=2):
    return CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, max_levels=2, steps=steps,
                            regrid_every=regrid_every, max_patch_cells=512),
        flux=flux,
        network=NetworkModel(latency_us=500.0, bandwidth_bytes_per_us=20.0,
                             jitter_sigma=jitter),
        nranks=3,
    )


@pytest.fixture(scope="module")
def fig4():
    return fig4_states_modes(QS, nprocs=2, repeats=3)


class TestFig3Shape:
    def test_profile_dominated_by_proxied_and_mpi(self):
        res = fig3_profile(small_config())
        # main is the 100% row
        assert res.rows[0][5].startswith("int main")
        assert res.rows[0][0] == pytest.approx(100.0)
        # proxied compute methods appear with a visible share (smaller
        # than the paper's since the batched kernels cut compute time)
        assert res.proxy_fractions[f"g_proxy::compute()"] > 0.025
        assert res.proxy_fractions[f"sc_proxy::compute()"] > 0.025
        # message passing is a visible fraction of the run
        assert res.mpi_fraction > 0.02


class TestFig45Shape:
    def test_modes_comparable_when_cache_resident(self, fig4):
        ratio = fig5_stride_ratio(fig4).ratio
        assert 0.7 < ratio[0] < 1.6  # smallest Q: near parity

    def test_strided_penalty_grows(self, fig4):
        f5 = fig5_stride_ratio(fig4)
        # largest-Q ratio exceeds smallest-Q ratio (the paper's divergence)
        assert f5.ratio[-1] >= f5.ratio[0] * 0.9
        assert f5.ratio.max() >= 1.0


class TestFig678Shapes:
    @pytest.fixture(scope="class")
    def models(self):
        f6 = fig6_states_model(QS, nprocs=2, repeats=3)
        f7 = fig7_godunov_model(QS, nprocs=2, repeats=3)
        f8 = fig8_efm_model(QS, nprocs=2, repeats=3)
        return f6, f7, f8

    def test_means_grow_with_q(self, models):
        for fig in models:
            assert fig.mean_us[-1] > fig.mean_us[0]
            # model predictions track the data ordering
            assert fig.model.predict_mean(fig.q_bins[-1]) > \
                fig.model.predict_mean(fig.q_bins[0])

    def test_fit_quality(self, models):
        # Wall-clock measurements on a shared host are noisy at this small
        # test scale; the benchmarks assert tighter bounds at full scale.
        # 0.75 combined with the monotone-growth check still rejects a
        # wrong functional form.
        for fig in models:
            assert fig.model.mean_fit.r2 > 0.75

    def test_godunov_more_expensive_than_efm(self, models):
        _f6, f7, f8 = models
        qtop = float(min(f7.q_bins[-1], f8.q_bins[-1]))
        assert f7.model.predict_mean(qtop) > f8.model.predict_mean(qtop)

    def test_sigma_models_exist(self, models):
        for fig in models:
            assert fig.model.std_fit is not None
            assert np.any(fig.std_us > 0)


class TestFig9Shape:
    @pytest.fixture(scope="class")
    def fig9(self):
        return fig9_comm_levels(small_config(steps=4, regrid_every=2))

    def test_samples_from_all_ranks_and_levels(self, fig9):
        ranks = {r for r, _l, _d, _t in fig9.samples}
        levels = {l for _r, l, _d, _t in fig9.samples}
        assert ranks == {0, 1, 2}
        assert 0 in levels and 1 in levels

    def test_regrid_creates_second_decomposition_cluster(self, fig9):
        decomps = {d for _r, _l, d, _t in fig9.samples}
        assert len(decomps) >= 2

    def test_jitter_produces_within_cluster_scatter(self, fig9):
        stats = fig9.cluster_stats()
        # at least one populated cluster shows nonzero scatter
        assert any(std > 0 for (_m, std, n) in stats.values() if n >= 3)

    def test_all_comm_times_positive(self, fig9):
        assert all(t > 0 for _r, _l, _d, t in fig9.samples)

    def test_no_jitter_collapses_per_message_scatter(self):
        """DESIGN.md ablation: jitter off -> per-message costs deterministic."""
        rng = np.random.default_rng(0)
        quiet = NetworkModel(latency_us=500.0, bandwidth_bytes_per_us=20.0,
                             jitter_sigma=0.0)
        noisy = NetworkModel(latency_us=500.0, bandwidth_bytes_per_us=20.0,
                             jitter_sigma=0.4)
        q_costs = {quiet.p2p_cost(4096, rng) for _ in range(50)}
        n_costs = {noisy.p2p_cost(4096, rng) for _ in range(50)}
        assert len(q_costs) == 1
        assert len(n_costs) > 10


class TestFig10Shape:
    @pytest.fixture(scope="class")
    def fig10(self):
        return fig10_dual_graph(small_config("efm"), small_config("godunov"))

    def test_dual_has_invocation_weighted_edges(self, fig10):
        assert fig10.dual_edges
        assert all(count > 0 for _u, _v, count in fig10.dual_edges)

    def test_vertex_weights_present(self, fig10):
        flux_node = "g_proxy::compute()"
        assert fig10.dual_nodes[flux_node]["compute_us"] > 0
        mesh_node = "amr_proxy::ghost_update()"
        assert fig10.dual_nodes[mesh_node]["comm_us"] > 0

    def test_cost_selection_prefers_efm(self, fig10):
        assert fig10.optimization.best.binding_names()["flux"] == "EFMFlux"

    def test_qos_selection_prefers_godunov(self, fig10):
        assert fig10.qos_optimization.best.binding_names()["flux"] == "GodunovFlux"

    def test_render_mentions_both(self, fig10):
        text = fig10.render()
        assert "EFMFlux" in text and "GodunovFlux" in text
