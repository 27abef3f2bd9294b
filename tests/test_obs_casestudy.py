"""End-to-end observability on the instrumented case study (acceptance).

A 4-rank traced run must produce: a causal cross-rank edge for every
matched p2p pair, a critical path bounded by the wall-clock window with a
compute/MPI-wait decomposition, span/record and span/ledger crosschecks
that agree exactly, per-step spans and checkpoint spans, and self-reported
tracing overhead.
"""

import pytest

from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.plan import ComponentFault, FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.obs import (ObsConfig, collect, critical_path, crosscheck_ledger,
                       crosscheck_records, flow_edges, merged_metrics,
                       per_step_critical_paths, timeline,
                       validate_trace_file, write_metrics, write_trace)

NET = NetworkModel(latency_us=800.0, bandwidth_bytes_per_us=16.0,
                   jitter_sigma=0.1)


def small_config(**kw):
    kw.setdefault("params", DriverParams(nx=64, ny=64, steps=2,
                                         max_patch_cells=16384))
    kw.setdefault("nranks", 4)
    kw.setdefault("network", NET)
    kw.setdefault("observe", ObsConfig())
    return CaseStudyConfig(**kw)


@pytest.fixture(scope="module")
def traced_run():
    res = run_case_study(small_config())
    records = collect(res)
    return res, records, *timeline(records)


def test_every_matched_p2p_pair_has_an_edge(traced_run):
    res, _, spans, flows = traced_run
    outs = {f.flow_id for f in flows if f.kind == "out"}
    ins = {f.flow_id for f in flows if f.kind == "in"}
    matched = outs & ins
    assert matched, "the case study must exchange p2p messages"
    preds = flow_edges(flows)
    in_sinks = {f.span_id for f in flows
                if f.kind == "in" and f.flow_id in matched}
    missing = in_sinks - set(preds)
    assert not missing, f"{len(missing)} matched receive(s) without an edge"
    by_id = {s.span_id: s for s in spans}
    assert any(by_id[p].rank != by_id[sink].rank
               for sink, ps in preds.items() for p in ps
               if sink in by_id and p in by_id)


def test_critical_path_bounded_and_decomposed(traced_run):
    res, _, spans, flows = traced_run
    rep = critical_path(spans, flows)
    assert 0.0 < rep.path_us <= rep.total_wall_us + 1e-6
    assert rep.cross_rank_hops > 0
    assert rep.breakdown.get("compute", 0.0) > 0.0
    assert rep.breakdown.get("mpi_wait", 0.0) > 0.0


def test_per_step_paths_cover_every_step(traced_run):
    res, _, spans, flows = traced_run
    out = per_step_critical_paths(spans, flows)
    assert sorted(out) == [0, 1]
    for rep in out.values():
        assert 0.0 < rep.path_us <= rep.total_wall_us + 1e-6


def test_crosscheck_records_exact(traced_run):
    # A traced frame is its span: each record's wall is its span's
    # interval, so the totals differ by float summation order alone.
    res, _, spans, _ = traced_run
    recs = [h.records for h in res.extras if h is not None]
    out = crosscheck_records(spans, recs)
    assert out, "instrumented run must produce records"
    for name, (s_us, r_us, _err) in out.items():
        assert s_us == pytest.approx(r_us, rel=1e-9), (
            f"{name}: span={s_us:.3f} rec={r_us:.3f}")


def test_crosscheck_ledger_exact_on_fault_free_run(traced_run):
    res, _, spans, _ = traced_run
    out = crosscheck_ledger(spans, res.world.accounting)
    assert out, "traced run must contain MPI spans"
    bad = {r: v for r, v in out.items() if v[0] != v[1]}
    assert not bad, f"span/ledger call counts disagree: {bad}"


def test_overhead_self_reported(traced_run):
    _, records, _, _ = traced_run
    assert [r.rank for r in records] == [0, 1, 2, 3]
    for rep in (r.overhead for r in records):
        assert rep["ops"] > 0
        assert rep["self_overhead_us"] >= 0.0
        assert rep["dropped"] == 0


def test_step_spans_present_per_rank(traced_run):
    _, _, spans, _ = traced_run
    steps = [s for s in spans if s.category == "step"]
    assert len(steps) == 4 * 2  # nranks * steps
    assert {int(s.attrs["step"]) for s in steps} == {0, 1}
    assert all(s.name == "timestep" for s in steps)


def test_metrics_cover_all_subsystems(traced_run):
    _, records, _, _ = traced_run
    merged = merged_metrics(records)
    snap = merged.snapshot()
    names = {m["name"] for m in snap["metrics"]}
    assert {"mpi_calls_total", "mpi_cost_us_total", "mpi_bytes_sent_total",
            "invocations_total", "invocation_wall_us"} <= names
    nvoc = merged.counter("invocations_total",
                          routine="sc_proxy::compute()").value
    assert nvoc > 0


def test_export_valid(traced_run, tmp_path):
    _, records, spans, _ = traced_run
    path = str(tmp_path / "case.json")
    write_trace(records, path)
    assert validate_trace_file(path) == []
    merged = write_metrics(records, json_path=str(tmp_path / "m.json"),
                           prometheus_path=str(tmp_path / "m.prom"))
    assert merged.counter("tracer_spans_total").value == float(len(spans))


def test_sampling_reduces_compute_spans():
    full = run_case_study(small_config(observe=ObsConfig(sample_every=1)))
    sampled = run_case_study(small_config(observe=ObsConfig(sample_every=8)))
    r_full, r_samp = collect(full), collect(sampled)

    def compute_spans(records):
        return sum(1 for r in records for s in r.spans
                   if s.category == "compute")

    assert compute_spans(r_samp) < compute_spans(r_full)
    assert any(r.overhead["sampled_out"] for r in r_samp), \
        "sampling must report what it skipped"
    # MPI spans are never sampled: ledger crosscheck stays exact.
    out = crosscheck_ledger(timeline(r_samp)[0], sampled.world.accounting)
    assert all(a == b for a, b in out.values())


def test_fault_run_records_retry_metrics(tmp_path):
    plan = FaultPlan(
        name="obs-faults",
        components=(ComponentFault(label="sc_proxy", kind="raise",
                                   method="compute", index=2, count=3),),
    )
    cfg = small_config(
        fault_plan=plan,
        resilience=ResiliencePolicy(),
        checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpt"), every=1),
    )
    res = run_case_study(cfg)
    records = collect(res)
    spans, _ = timeline(records)
    merged = merged_metrics(records)
    assert merged.counter("component_retries_total",
                          label="sc_proxy").value >= 3.0
    assert merged.counter("checkpoint_saves_total").value == 4 * 2
    assert merged.counter("checkpoint_bytes_total").value > 0
    ckpt_spans = [s for s in spans if s.category == "checkpoint"]
    assert len(ckpt_spans) == 4 * 2
    assert all(s.name == "checkpoint.save" for s in ckpt_spans)
    # Checkpoint writes happen inside the step span (post-step hook).
    by_id = {s.span_id: s for s in spans}
    assert all(by_id[s.parent_id].category == "step" for s in ckpt_spans
               if s.parent_id is not None)
