"""The instrumented case study on 3 simulated processors."""

import pytest

from repro.cca.scmd import MAIN_TIMER
from repro.euler.ports import DriverParams
from repro.harness.casestudy import (FLUX_PROXY, MESH_PROXY, STATES_PROXY,
                                     CaseStudyConfig, run_case_study)
from repro.mpi.network import NetworkModel


@pytest.fixture(scope="module")
def small_run():
    config = CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, max_levels=2, steps=2,
                            regrid_every=0, max_patch_cells=512),
        nranks=3,
        network=NetworkModel(latency_us=100.0, bandwidth_bytes_per_us=50.0,
                             jitter_sigma=0.2),
    )
    return run_case_study(config)


def test_all_ranks_succeed(small_run):
    assert small_run.results == [0, 0, 0]


def test_main_timer_and_proxy_timers_present(small_run):
    for snap in small_run.timer_snapshots:
        assert MAIN_TIMER in snap
        assert f"{STATES_PROXY}::compute()" in snap
        assert f"{FLUX_PROXY}::compute()" in snap
        assert f"{MESH_PROXY}::ghost_update()" in snap


def test_mpi_routines_profiled(small_run):
    snap = small_run.timer_snapshots[0]
    mpi_names = [n for n, t in snap.items() if t.group == "MPI"]
    assert "MPI_Waitsome" in mpi_names or "MPI_Isend" in mpi_names
    assert "MPI_Allreduce" in mpi_names  # compute_dt reduction


def test_mastermind_records_harvested(small_run):
    for harvest in small_run.extras:
        rec = harvest.records[(STATES_PROXY, "compute")]
        assert len(rec) > 0
        q = rec.param_series("Q")
        assert (q > 0).all()
        modes = {inv.params["mode"] for inv in rec.invocations}
        assert modes == {"x", "y"}  # alternating sweep modes


def test_flux_and_states_invoked_equally(small_run):
    """InviscidFlux calls States then Flux once per sweep."""
    for harvest in small_run.extras:
        n_states = len(harvest.records[(STATES_PROXY, "compute")])
        n_flux = len(harvest.records[(FLUX_PROXY, "compute")])
        assert n_states == n_flux > 0


def test_ghost_update_params_include_level_and_decomp(small_run):
    rec = small_run.extras[0].records[(MESH_PROXY, "ghost_update")]
    levels = {inv.params["level"] for inv in rec.invocations}
    assert 0 in levels
    assert all("decomp" in inv.params for inv in rec.invocations)


def test_ghost_update_mpi_time_positive(small_run):
    rec = small_run.extras[0].records[(MESH_PROXY, "ghost_update")]
    assert rec.total_mpi_us() > 0


def test_compute_components_have_no_mpi_time(small_run):
    """States/Flux 'components involve no message passing' (paper S5)."""
    for harvest in small_run.extras:
        for key in ((STATES_PROXY, "compute"), (FLUX_PROXY, "compute")):
            assert harvest.records[key].total_mpi_us() == 0.0


def test_callpath_contains_proxied_routines(small_run):
    edges = small_run.extras[0].callpath_edges
    callees = {callee for (_caller, callee) in edges}
    assert f"{STATES_PROXY}::compute()" in callees
    assert f"{FLUX_PROXY}::compute()" in callees


def test_modal_model_from_case_study(small_run):
    """Mode-resolved models fit straight from the recorded run."""
    mm = small_run.extras[0].mastermind
    modal = mm.build_modal_performance_model(
        STATES_PROXY, "compute", mean_families=("linear", "power"),
        min_bin_count=1,
    )
    assert modal.modes == ["x", "y"]
    q = mm.record(STATES_PROXY, "compute").param_series("Q").max()
    assert float(modal.predict_mean(q, "x")) > 0
    assert float(modal.predict_mean(q, "y")) > 0


def test_instrumentation_off_produces_no_extras():
    config = CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, max_levels=1, steps=1),
        instrument=False, nranks=2,
    )
    res = run_case_study(config)
    assert res.results == [0, 0]
    assert res.extras == [None, None]


def test_invalid_flux_name_rejected():
    """The config resolves its flux when built: the caller gets the
    ValueError itself, before any rank is launched."""
    with pytest.raises(ValueError, match="flux must be one of .* got 'bogus'"):
        CaseStudyConfig(flux="bogus")
