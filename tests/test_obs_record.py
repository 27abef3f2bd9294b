"""One run record per rank: the one writer and loader, and every view.

A record written and loaded back equals the one collected from the live
run, on both backends, with every opt-in layer on; and each text shape
(TAU profile, Mastermind record files, Prometheus and JSON metrics,
Chrome trace) renders the loaded record to the bytes it renders the
live one to.
"""

import pytest

from repro.analysis.sanitize import SanitizerConfig
from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.obs import (ObsConfig, collect, live_metrics, load_records,
                       merged_metrics, write_trace)
from repro.obs.metrics import MetricsRegistry
from repro.perf.records import record_files
from repro.tau.profiler import format_profile

#: the e2e benchmark's ``layers_on`` mesh and layers, two steps
PARAMS = DriverParams(nx=64, ny=64, max_levels=3, steps=2, regrid_every=2,
                      max_patch_cells=1024)


def layers_on(backend, ckpt_dir):
    return CaseStudyConfig(
        params=PARAMS, flux="efm", nranks=3, seed=5, backend=backend,
        instrument=True, proxy_rhs=True, observe=ObsConfig(),
        sanitize=SanitizerConfig(), resilience=ResiliencePolicy(),
        checkpoint=CheckpointConfig(str(ckpt_dir), every=2))


@pytest.fixture(scope="module", params=["thread", "mp-shm"])
def run(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    res = run_case_study(layers_on(request.param, tmp / "ckpt"))
    assert res.results == [0, 0, 0]
    live = collect(res)
    for record in live:
        record.write(str(tmp / "records"))
    return request.param, res, live, load_records(str(tmp / "records")), tmp


def test_loaded_records_equal_written_ones(run):
    backend, _, live, loaded, _ = run
    assert [r.rank for r in loaded] == [0, 1, 2]
    assert loaded == live
    for rec in loaded:
        assert (rec.nranks, rec.seed, rec.backend) == (3, 5, backend)
        assert rec.spans and rec.flows and rec.records and rec.timers
        assert rec.ledger and rec.metrics["metrics"] and rec.reason is None


def test_tau_profile_renders_alike(run):
    _, res, live, loaded, _ = run
    for r, rec in enumerate(loaded):
        text = format_profile(rec.rank, rec.timers, rec.events, rec.counters)
        assert text == format_profile(
            r, res.timer_snapshots[r], res.event_summaries[r],
            res.counter_values[r])
        assert text == format_profile(live[r].rank, live[r].timers,
                                      live[r].events, live[r].counters)


def test_mastermind_record_files_render_alike(run):
    _, res, live, loaded, _ = run
    for r, rec in enumerate(loaded):
        files = record_files(rec.records)
        assert files == record_files(live[r].records)
        mm = res.world.obs[r].mastermind
        assert files == record_files(mm.records_state())
        assert "sc_proxy.compute.record" in files


def test_metrics_render_alike(run):
    _, res, live, loaded, _ = run
    merged = merged_metrics(loaded)
    assert merged.to_prometheus() == merged_metrics(live).to_prometheus()
    assert merged.to_prometheus() == live_metrics(res.world.obs).to_prometheus()
    assert merged.to_json() == merged_metrics(live).to_json()
    assert "invocation_wall_us_bucket" in merged.to_prometheus()


def test_chrome_trace_renders_alike(run):
    _, _, live, loaded, tmp = run
    a, b = tmp / "live.json", tmp / "loaded.json"
    write_trace(live, str(a))
    write_trace(loaded, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_registry_state_round_trips():
    reg = MetricsRegistry(rank=2)
    reg.counter("c_total", "a counter", routine="x").inc(3)
    reg.gauge("g", "a gauge").set(-1.5)
    reg.histogram("h_us", "a histogram", bounds=(1.0, 10.0)).observe(4.0)
    back = MetricsRegistry.from_state(reg.state())
    assert back.to_prometheus() == reg.to_prometheus()
    assert back.to_json() == reg.to_json()
