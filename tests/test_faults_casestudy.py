"""End-to-end resilience: the SCMD case study under fault plans, including
deterministic schedules and bitwise-identical checkpoint/restart."""

import dataclasses

import pytest

from repro.analysis.sanitize import SanitizerConfig
from repro.faults.checkpoint import CheckpointConfig, hierarchy_states_equal
from repro.faults.plan import FaultPlan, canned_plans
from repro.faults.policy import ResiliencePolicy
from repro.faults.straggler import StragglerDetector, mpi_totals_by_rank
from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.mpi.runner import RankFailure

PARAMS = DriverParams(nx=32, ny=32, max_levels=2, steps=4, regrid_every=2,
                      max_patch_cells=512)
NET = NetworkModel(latency_us=100.0, bandwidth_bytes_per_us=50.0,
                   jitter_sigma=0.2)


def config(**kwargs) -> CaseStudyConfig:
    base = dict(params=PARAMS, nranks=3, network=NET,
                resilience=ResiliencePolicy())
    base.update(kwargs)
    return CaseStudyConfig(**base)


# --------------------------------------------------------- canned scenarios
#: (plan, backend, sanitizers on): every plan on threads with and without
#: sanitizers, and the duplicating plan through the mp-shm transport
CANNED_CASES = [
    pytest.param(name, "thread", sanitize,
                 id=name + ("-sanitized" if sanitize else ""))
    for name in sorted(canned_plans()) for sanitize in (False, True)
] + [pytest.param("straggler-stalls", "mp-shm", True,
                  id="straggler-stalls-mp-shm-sanitized")]


@pytest.mark.parametrize("name,backend,sanitize", CANNED_CASES)
def test_case_study_completes_under_canned_plan(name, backend, sanitize):
    res = run_case_study(config(
        fault_plan=canned_plans()[name], backend=backend,
        sanitize=SanitizerConfig() if sanitize else None))
    assert res.results == [0, 0, 0]
    counts = res.world.injector.total_counts()
    merged = {}
    for harvest in res.extras:
        for key, val in harvest.resilience.items():
            merged[key] = merged.get(key, 0) + val
    assert merged["failures"] == 0
    # Every injected duplicate is discarded, also one that arrives after
    # its original was consumed (booked at the end of the rank's run).
    assert (sum(st.deduplicated for st in res.world.resilience)
            == counts.get("fault.duplicate", 0))
    if sanitize:
        assert res.world.sanitizer.findings == []
    if name == "dropped-messages":
        assert counts["fault.drop"] == 3
        assert merged["recovered"] == 3
    elif name == "straggler-stalls":
        assert counts["fault.stall"] >= 40
        assert counts["fault.duplicate"] == 2
    else:  # flaky-component
        assert counts["fault.raise"] == 6
        assert merged["component_retries"] == 6


def test_component_delay_shows_in_mastermind_records():
    res = run_case_study(config(fault_plan=canned_plans()["flaky-component"]))
    # The 20 ms injected sleep lands inside the monitored region, so the
    # States record on every rank carries a visible wall-time spike.
    for harvest in res.extras:
        wall = harvest.records[("sc_proxy", "compute")].wall_series()
        assert wall.max() > 20_000.0


def test_straggler_rank_detected_from_mpi_ledgers():
    res = run_case_study(config(fault_plan=canned_plans()["straggler-stalls"]))
    totals = [res.world.accounting[r].total_us() for r in range(3)]
    report = StragglerDetector().detect(totals)
    assert report.detected and report.stragglers == (1,)
    # Same verdict from the per-rank Mastermind records (proxy MPI sums).
    by_rank = {r: h.records for r, h in enumerate(res.extras)}
    rec_totals = mpi_totals_by_rank(by_rank)
    assert StragglerDetector().detect(rec_totals).stragglers == (1,)


# -------------------------------------------------------------- determinism
def test_identical_runs_are_bitwise_identical():
    cfg = config(fault_plan=canned_plans()["dropped-messages"])
    a = run_case_study(cfg)
    b = run_case_study(cfg)
    assert (a.world.injector.schedule_signature()
            == b.world.injector.schedule_signature())
    for ha, hb in zip(a.extras, b.extras):
        assert ha.dt_history == hb.dt_history
        assert hierarchy_states_equal(ha.mesh_state, hb.mesh_state)


# --------------------------------------------------------- kill and restart
def test_kill_then_restart_matches_uninterrupted_run(tmp_path):
    steps6 = dataclasses.replace(PARAMS, steps=6)
    baseline = run_case_study(config(params=steps6))

    plan = FaultPlan(name="mid-run-kill", kill_at_step=3)
    killed_cfg = config(params=steps6, fault_plan=plan,
                        checkpoint=CheckpointConfig(str(tmp_path), every=2))
    with pytest.raises(RankFailure, match="SimulatedCrash"):
        run_case_study(killed_cfg)

    resumed_cfg = dataclasses.replace(
        killed_cfg, resume=True,
        fault_plan=dataclasses.replace(plan, kill_at_step=None))
    resumed = run_case_study(resumed_cfg)
    assert resumed.results == [0, 0, 0]
    # Resumed from the step-1 checkpoint, then re-checkpointed steps 3 and 5.
    assert resumed.extras[0].checkpoint_steps == [3, 5]
    assert resumed.extras[0].checkpoint_bytes > 0

    for rank in range(3):
        hb, hr = baseline.extras[rank], resumed.extras[rank]
        assert hb.dt_history == hr.dt_history
        assert hierarchy_states_equal(hb.mesh_state, hr.mesh_state)
        # Measurement history is stitched back together: the resumed run's
        # per-routine invocation counts equal the uninterrupted run's.
        assert ({k: len(r) for k, r in hb.records.items()}
                == {k: len(r) for k, r in hr.records.items()})
        # ... and so is the call path, folded from the restored records.
        assert hb.callpath_edges == hr.callpath_edges


def test_resume_without_checkpoint_raises(tmp_path):
    cfg = config(checkpoint=CheckpointConfig(str(tmp_path / "empty")),
                 resume=True)
    with pytest.raises(RankFailure, match="no checkpoint manifest"):
        run_case_study(cfg)


def test_checkpointing_without_faults_is_transparent(tmp_path):
    plain = run_case_study(config())
    ckpt = run_case_study(config(
        checkpoint=CheckpointConfig(str(tmp_path), every=2)))
    assert ckpt.extras[0].checkpoint_steps == [1, 3]
    for hp, hc in zip(plain.extras, ckpt.extras):
        assert hp.dt_history == hc.dt_history
        assert hierarchy_states_equal(hp.mesh_state, hc.mesh_state)
