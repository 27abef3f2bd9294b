"""Dual-graph construction and assembly optimization (Figure 10)."""

import time

import pytest

from repro.cca import Framework
from repro.models.composite import CompositeModel, Workload
from repro.models.fits import fit_linear
from repro.models.performance import PerformanceModel
from repro.perf import (AssemblyOptimizer, Mastermind, build_dual,
                        dual_to_composite, insignificant_subgraph_nodes)
from repro.tau.component import TauMeasurementComponent


def linear_model(name, a, b, quality=1.0):
    return PerformanceModel(name, fit_linear([0.0, 1.0], [a, a + b]), quality=quality)


@pytest.fixture
def recorded_mastermind():
    """A Mastermind with a nested two-component recording."""
    fw = Framework()
    fw.create("tau", TauMeasurementComponent)
    mm = fw.create("mm", Mastermind)
    fw.connect("mm", "measurement", "tau", "measurement")
    for q in (100, 100, 400):
        outer = mm.begin_invocation("driver", "run", {"Q": q})
        inner = mm.begin_invocation("flux", "compute", {"Q": q})
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 50_000:
            pass
        mm.end_invocation(inner)
        mm.end_invocation(outer)
    return fw, mm


class TestBuildDual:
    def test_nodes_edges_and_weights(self, recorded_mastermind):
        _, mm = recorded_mastermind
        g = build_dual(mm)
        assert set(g.nodes) == {"driver::run()", "flux::compute()"}
        assert g["driver::run()"]["flux::compute()"]["count"] == 3
        assert g.nodes["flux::compute()"]["invocations"] == 3
        assert g.nodes["flux::compute()"]["compute_us"] > 0
        assert not g.nodes["flux::compute()"]["predicted"]

    def test_graph_excludes_root_by_default(self, recorded_mastermind):
        _, mm = recorded_mastermind
        # The outer routine is called from outside every monitored one: its
        # records' caller is the root, which is an edge of the call path
        # but not a vertex of the dual.
        assert mm.edge_counts() == {("<root>", "driver::run()"): 3,
                                    ("driver::run()", "flux::compute()"): 3}
        g = build_dual(mm)
        assert "<root>" not in g
        assert list(g.edges) == [("driver::run()", "flux::compute()")]

    def test_model_predicted_weights(self, recorded_mastermind):
        _, mm = recorded_mastermind
        m = linear_model("flux-model", 0.0, 1.0)  # T = Q
        g = build_dual(mm, models={"flux": m})
        node = g.nodes["flux::compute()"]
        assert node["predicted"]
        # workload: two invocations at Q=100, one at Q=400 -> 600
        assert node["compute_us"] == pytest.approx(600.0)
        assert node["model"] == "flux-model"

    def test_insignificant_subgraphs(self, recorded_mastermind):
        _, mm = recorded_mastermind
        g = build_dual(mm)
        g.nodes["flux::compute()"]["compute_us"] = 1e-9
        g.nodes["flux::compute()"]["comm_us"] = 0.0
        g.nodes["driver::run()"]["compute_us"] = 1e6
        out = insignificant_subgraph_nodes(g, fraction=0.01)
        assert out == {"flux::compute()"}
        # the parent subsumes the child, so it is significant
        assert "driver::run()" not in out

    def test_insignificant_fraction_validated(self, recorded_mastermind):
        _, mm = recorded_mastermind
        with pytest.raises(ValueError):
            insignificant_subgraph_nodes(build_dual(mm), fraction=2.0)


class TestDualToComposite:
    def test_slot_and_bound_nodes(self, recorded_mastermind):
        _, mm = recorded_mastermind
        comp = dual_to_composite(mm, slots={"flux": "flux"})
        assert comp.free_slots() == {"flux": ["flux::compute()"]}
        total, breakdown = comp.evaluate({"flux": linear_model("m", 0.0, 1.0)})
        assert total > 0
        # driver node bound to its measured mean automatically
        names = {sc.node: sc.model_name for sc in breakdown}
        assert "measured-mean" in names["driver::run()"]

    def test_explicit_models_used(self, recorded_mastermind):
        _, mm = recorded_mastermind
        m = linear_model("driver-model", 10.0, 0.0)
        comp = dual_to_composite(mm, slots={"flux": "flux"}, models={"driver": m})
        total, breakdown = comp.evaluate({"flux": linear_model("z", 0.0, 0.0)})
        drv = next(sc for sc in breakdown if sc.node == "driver::run()")
        assert drv.model_name == "driver-model"
        assert drv.compute_us == pytest.approx(30.0)  # 3 invocations x 10us


def simple_composite():
    comp = CompositeModel()
    comp.add_node("flux", Workload((1000.0,), (10,)), slot="flux")
    comp.add_node("states", Workload((1000.0,), (10,)),
                  model=linear_model("states", 0.0, 0.05))
    return comp


class TestOptimizer:
    def setup_method(self):
        self.cheap = linear_model("EFM", 0.0, 0.16, quality=0.85)
        self.costly = linear_model("Godunov", 0.0, 0.315, quality=1.0)

    def test_exhaustive_picks_cheapest(self):
        opt = AssemblyOptimizer(simple_composite(),
                                {"flux": [self.costly, self.cheap]})
        res = opt.optimize()
        assert res.best.binding_names() == {"flux": "EFM"}
        assert len(res.ranked) == 2
        assert res.ranked[0].cost_us < res.ranked[1].cost_us

    def test_qos_weight_flips_choice(self):
        opt = AssemblyOptimizer(simple_composite(),
                                {"flux": [self.costly, self.cheap]})
        # cost_e = 1600, cost_g = 3150; flip weight = (3150-1600)/(1600*.15) ~ 6.46
        res = opt.optimize(qos_weight=8.0)
        assert res.best.binding_names() == {"flux": "Godunov"}

    def test_min_quality_constraint(self):
        opt = AssemblyOptimizer(simple_composite(),
                                {"flux": [self.costly, self.cheap]})
        res = opt.optimize(min_quality=0.9)
        assert res.best.binding_names() == {"flux": "Godunov"}

    def test_unsatisfiable_quality(self):
        opt = AssemblyOptimizer(simple_composite(), {"flux": [self.cheap]})
        with pytest.raises(ValueError, match="min_quality"):
            opt.optimize(min_quality=0.99)

    def test_greedy_matches_exhaustive_for_additive(self):
        comp = simple_composite()
        comp.add_node("solver", Workload((500.0,), (4,)), slot="solver")
        candidates = {
            "flux": [self.costly, self.cheap],
            "solver": [linear_model("s1", 100.0, 0.0), linear_model("s2", 1.0, 0.0)],
        }
        a = AssemblyOptimizer(comp, candidates).optimize()
        b = AssemblyOptimizer(comp, candidates).optimize_greedy()
        assert a.best.binding_names() == b.best.binding_names()

    def test_search_space_size(self):
        comp = simple_composite()
        comp.add_node("solver", Workload((1.0,), (1,)), slot="solver")
        opt = AssemblyOptimizer(comp, {
            "flux": [self.cheap, self.costly],
            "solver": [self.cheap, self.costly, self.cheap],
        })
        assert opt.search_space_size() == 6

    def test_missing_candidates_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            AssemblyOptimizer(simple_composite(), {})

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            AssemblyOptimizer(simple_composite(), {"flux": []})

    def test_negative_qos_weight_rejected(self):
        opt = AssemblyOptimizer(simple_composite(), {"flux": [self.cheap]})
        with pytest.raises(ValueError):
            opt.optimize(qos_weight=-1.0)

    def test_summary_marks_winner(self):
        opt = AssemblyOptimizer(simple_composite(),
                                {"flux": [self.costly, self.cheap]})
        text = opt.optimize().summary()
        assert "->" in text and "EFM" in text
