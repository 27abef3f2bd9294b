"""Every metrics view is one fold over the stores the series come from.

The MPI series are the ranks' ledger rows and the invocation series are
the Mastermind's records, read from the run records whenever a view is
taken: the records' merge, the written files and the live scrape agree,
and a resumed run counts the invocations it restored.
"""

import dataclasses

import pytest

from repro.cca import Framework, Port
from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.mpi.runner import RankFailure
from repro.obs import (ObsConfig, RankObs, collect, live_metrics,
                       merged_metrics, write_metrics)
from repro.obs.export import rank_metrics
from repro.obs.record import rank_record
from repro.obs.metrics import Histogram
from repro.perf import Mastermind, make_proxy_port, perf_params
from repro.tau.component import TauMeasurementComponent

PARAMS = DriverParams(nx=32, ny=32, max_levels=2, steps=4, regrid_every=2,
                      max_patch_cells=512)
NET = NetworkModel(latency_us=100.0, bandwidth_bytes_per_us=50.0,
                   jitter_sigma=0.2)


def config(**kwargs) -> CaseStudyConfig:
    base = dict(params=PARAMS, nranks=3, network=NET,
                resilience=ResiliencePolicy(), observe=ObsConfig())
    base.update(kwargs)
    return CaseStudyConfig(**base)


def invocations_by_routine(harvests) -> dict[str, int]:
    out: dict[str, int] = {}
    for h in harvests:
        for rec in h.records.values():
            out[rec.timer_name] = out.get(rec.timer_name, 0) + len(rec)
    return out


def counter_values(registry, name) -> dict[str, float]:
    return {dict(lk)["routine"]: inst.value
            for n, lk, inst in registry.series() if n == name}


@pytest.fixture(scope="module")
def observed_run():
    res = run_case_study(config())
    assert res.results == [0, 0, 0]
    return res


def test_three_views_give_identical_exposition(observed_run, tmp_path):
    world = observed_run.world
    records = collect(world)
    dumped = merged_metrics(records).to_prometheus()
    written = write_metrics(records, prometheus_path=str(tmp_path / "m.prom"))
    assert written.to_prometheus() == dumped
    assert (tmp_path / "m.prom").read_text() == dumped
    assert live_metrics(world.obs).to_prometheus() == dumped
    assert "tracer_spans_total" in dumped


def test_mpi_series_are_the_ledger_rows(observed_run):
    world = observed_run.world
    merged = live_metrics(world.obs)
    calls: dict[str, float] = {}
    cost: dict[str, float] = {}
    for ledger in world.accounting:
        for routine, st in ledger.routine_totals().items():
            calls[routine] = calls.get(routine, 0.0) + st.calls
            cost[routine] = cost.get(routine, 0.0) + st.total_us
    assert counter_values(merged, "mpi_calls_total") == calls
    assert counter_values(merged, "mpi_cost_us_total") == cost
    assert "mpi_cost_us" not in {n for n, _, _ in merged.series()}


def test_invocation_series_are_the_records(observed_run):
    merged = live_metrics(observed_run.world.obs)
    assert (counter_values(merged, "invocations_total")
            == invocations_by_routine(observed_run.extras))
    # The histogram is observed from the records in their stored order:
    # bucket for bucket, and its sum, equal to one built by hand.
    for ro, h in zip(observed_run.world.obs, observed_run.extras):
        view = rank_metrics(rank_record(ro))
        for rec in h.records.values():
            expect = Histogram()
            for inv in rec.invocations:
                expect.observe(inv.wall_us)
            got = view.histogram("invocation_wall_us", routine=rec.timer_name)
            assert got.bucket_counts == expect.bucket_counts
            assert (got.inf_count, got.total, got.count) == \
                (expect.inf_count, expect.total, expect.count)


def test_resumed_observed_run_counts_every_invocation(tmp_path):
    steps6 = dataclasses.replace(PARAMS, steps=6)
    plan = FaultPlan(name="mid-run-kill", kill_at_step=3)
    killed_cfg = config(params=steps6, fault_plan=plan,
                        checkpoint=CheckpointConfig(str(tmp_path), every=2))
    with pytest.raises(RankFailure, match="SimulatedCrash"):
        run_case_study(killed_cfg)
    resumed = run_case_study(dataclasses.replace(
        killed_cfg, resume=True,
        fault_plan=dataclasses.replace(plan, kill_at_step=None)))
    assert resumed.results == [0, 0, 0]
    expected = invocations_by_routine(resumed.extras)
    assert expected
    merged = merged_metrics(collect(resumed))
    assert counter_values(merged, "invocations_total") == expected


class WorkPort(Port):
    @perf_params(lambda args, kwargs: {"Q": args[0]})
    def work(self, q):
        raise NotImplementedError


class WorkImpl(WorkPort):
    def work(self, q):
        return q


def proxied(fw):
    fw.create("tau", TauMeasurementComponent)
    mm = fw.create("mm", Mastermind)
    fw.connect("mm", "measurement", "tau", "measurement")
    impl = WorkImpl()
    return mm, make_proxy_port(WorkPort, "w", lambda: impl, lambda: mm)


def test_scrape_after_restore_records_reads_the_restored_records():
    donor_mm, donor = proxied(Framework(obs=RankObs(0, ObsConfig())))
    for q in range(5):
        donor.work(q)
    state = donor_mm.records_state()

    fw = Framework(obs=RankObs(0, ObsConfig()))
    mm, proxy = proxied(fw)
    proxy.work(1)

    def scraped():
        return live_metrics([fw.obs]).counter(
            "invocations_total", routine="w::work()").value

    assert scraped() == 1
    mm.restore_records(state)  # replaces the record dict the view reads
    assert scraped() == 5
    proxy.work(2)
    assert scraped() == 6
    assert scraped() == len(mm.record("w", "work"))
