"""Flight recorder: windowed run records, crash dumps, cross-rank
post-mortems."""

import importlib
import json
import os
import types

import pytest

from repro.analysis import SanitizerConfig
from repro.euler.ports import DriverParams
from repro.faults.plan import FaultPlan
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.accounting import MPIAccounting
from repro.mpi.network import NetworkModel
from repro.mpi.runner import ParallelRunner, RankFailure
from repro.obs import (ObsConfig, RankObs, dump_flight_recorders,
                       load_records, merge_flight_recordings)
from repro.obs.export import rank_metrics
from repro.obs.flightrec import MERGED_SUMMARY, MERGED_TRACE
from repro.obs.metrics import Histogram
from repro.obs.record import rank_record
from repro.obs.span import CAT_COMPUTE, CAT_STEP, SpanTracer
from repro.perf.records import InvocationRecord, MethodRecord
from repro.tau.query import InvocationMeasurement


# ------------------------------------------------------------------ window
def test_validation():
    with pytest.raises(ValueError, match="flightrec_depth"):
        ObsConfig(flightrec_depth=0)
    # The window must fit in what the tracer keeps after an eviction.
    with pytest.raises(ValueError, match="max_spans // 2"):
        ObsConfig(max_spans=100, flightrec_depth=51)
    assert ObsConfig(max_spans=100, flightrec_depth=50).flightrec_depth == 50


def test_span_ring_is_bounded_and_keeps_newest(tmp_path):
    ro = RankObs(0, ObsConfig(max_spans=16, flight_recorder=True,
                              flightrec_depth=8, flightrec_dir=str(tmp_path)))
    for i in range(30):
        with ro.tracer.span(f"w{i}", CAT_COMPUTE):
            pass
    assert ro.tracer.dropped_count > 0  # the tracer evicted ...
    (path,) = dump_flight_recorders([ro], "test")
    names = [s["name"] for s in json.load(open(path))["spans"]]
    assert names == [f"w{i}" for i in range(22, 30)]  # ... the window did not


def test_dump_ledger_is_the_rank_ledger_rows(tmp_path):
    # A box keeps no ring of charges: it reads the ledger's rows as they
    # stand at dump time, however many charges there were.
    ro = RankObs(1, ObsConfig(flight_recorder=True, flightrec_depth=4))
    ro.ledger = MPIAccounting()
    for i in range(9):
        ro.ledger.record("MPI_Send", float(i))
    ro.ledger.record("MPI_Barrier", 0.5)
    (path,) = dump_flight_recorders([ro], "test", str(tmp_path))
    payload = json.load(open(path))
    assert payload["ledger"] == {
        "MPI_Send": {"calls": 9, "total_us": 36.0},
        "MPI_Barrier": {"calls": 1, "total_us": 0.5}}


def test_step_end_observes_nothing(monkeypatch):
    """``step_end_observes_nothing``: a step end closes its span, sets
    ``last_step`` and folds nothing, so it re-observes no recorded
    invocation however many there are; the full metrics view still folds
    every one into its histogram."""
    ro = RankObs(0, ObsConfig(flight_recorder=True))
    rec = MethodRecord("sc_proxy", "compute")
    ro.mastermind = types.SimpleNamespace(
        records_state=lambda: [rec.to_dict()])
    observed = []
    observe = Histogram.observe

    def counting(self, value):
        observed.append(value)
        observe(self, value)

    monkeypatch.setattr(Histogram, "observe", counting)
    for step in range(3):
        for _ in range(100):
            rec.add(InvocationRecord(
                params={}, measurement=InvocationMeasurement(5.0, 1.0)))
        with ro.step(step):
            pass
        assert ro.last_step == step
        assert ro.tracer.open_depth() == 0
    assert observed == []
    assert [s.attrs["step"] for s in ro.tracer.spans()] == [0, 1, 2]
    assert rank_metrics(rank_record(ro)).histogram(
        "invocation_wall_us", routine="sc_proxy::compute()").count == 300
    assert len(observed) == 300


def test_step_seam_records_the_step_on_unwind():
    ro = RankObs(0, ObsConfig(flight_recorder=True))
    with pytest.raises(RuntimeError):
        with ro.step(3):
            raise RuntimeError("killed mid-step")
    assert ro.last_step == 3
    assert ro.tracer.open_depth() == 0
    (span,) = ro.tracer.spans()
    assert (span.name, span.category, span.attrs) == \
        ("timestep", CAT_STEP, {"step": 3})


class TestOneSpanStore:
    """The tracer is the only span store: nothing attaches to it."""

    def test_sampler_options_are_gone(self):
        with pytest.raises(TypeError):
            ObsConfig(adaptive=True)
        with pytest.raises(TypeError):
            ObsConfig(tax_budget_pct=2.0)

    def test_tracer_has_no_attachments(self):
        tr = SpanTracer(rank=0)
        for name in ("attach_recorder", "attach_controller", "recorder",
                     "controller"):
            assert not hasattr(tr, name), name

    def test_adaptive_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.adaptive")


# ------------------------------------------------------------------- dumps
def _loaded_rank(rank=0):
    ro = RankObs(rank, ObsConfig(flight_recorder=True, flightrec_depth=16))
    for i in range(5):
        with ro.tracer.span(f"r{rank}w{i}", CAT_COMPUTE):
            pass
    ro.ledger = MPIAccounting()
    ro.ledger.record("MPI_Send", 12.5)
    return ro


def test_dump_writes_once_first_cause_wins(tmp_path):
    ro = _loaded_rank()
    (p1,) = dump_flight_recorders([ro], "simulated crash", str(tmp_path))
    (p2,) = dump_flight_recorders([ro], "cascading abort", str(tmp_path))
    assert p1 == p2 == ro.dumped_to == os.path.join(str(tmp_path), "rank0.json")
    # The box is the rank's record cut to its window, plus the reason.
    (box,) = load_records(str(tmp_path))
    assert box.reason == "simulated crash"
    assert box.rank == 0
    assert len(box.spans) == 5
    assert box.ledger == {"MPI_Send": {"calls": 1, "total_us": 12.5}}
    whole = rank_record(ro)
    whole.reason = "simulated crash"
    assert box == whole


def test_dump_flight_recorders_tolerates_gaps(tmp_path):
    ro_with = RankObs(0, ObsConfig(flight_recorder=True,
                                   flightrec_dir=str(tmp_path)))
    ro_without = RankObs(1, ObsConfig())
    paths = dump_flight_recorders([ro_with, ro_without], "test", str(tmp_path))
    assert paths == [os.path.join(str(tmp_path), "rank0.json")]
    assert dump_flight_recorders(None, "no obs at all") == []


# ------------------------------------------------------------------- merge
@pytest.mark.parametrize("nranks", [3, 12])
def test_merge_reconstructs_cross_rank_timeline(tmp_path, nranks):
    for rank in range(nranks):
        dump_flight_recorders([_loaded_rank(rank)], f"rank {rank} down",
                              str(tmp_path))
    pm = merge_flight_recordings(str(tmp_path))
    # Ranks in numeric order, not the file names' ("rank10" < "rank2").
    assert pm.ranks == list(range(nranks))
    assert pm.reasons[2] == "rank 2 down"
    assert len(pm.spans) == 5 * nranks
    starts = [s.t_start_us for s in pm.spans]
    assert starts == sorted(starts)
    assert pm.problems == []  # Perfetto-valid
    assert os.path.basename(pm.trace_path) == MERGED_TRACE
    assert os.path.basename(pm.summary_path) == MERGED_SUMMARY
    summary = json.load(open(pm.summary_path))
    assert summary["valid"] is True and summary["n_spans"] == 5 * nranks
    assert summary["ranks"] == list(range(nranks))
    assert f"post-mortem over ranks {list(range(nranks))}" in pm.format()
    assert pm.window_us > 0


def test_merge_requires_dumps(tmp_path):
    with pytest.raises(FileNotFoundError, match="rank\\*.json"):
        merge_flight_recordings(str(tmp_path))


# -------------------------------------------------- crash and deadlock e2e
PARAMS = DriverParams(nx=24, ny=24, max_levels=1, steps=4)
NET = NetworkModel(latency_us=50.0, bandwidth_bytes_per_us=100.0,
                   jitter_sigma=0.0)


def test_black_boxes_dumped_on_simulated_crash(tmp_path):
    rec_dir = str(tmp_path / "flightrec")
    cfg = CaseStudyConfig(
        params=PARAMS, nranks=2, network=NET,
        fault_plan=FaultPlan(name="kill", kill_at_step=2),
        observe=ObsConfig(flight_recorder=True, flightrec_dir=rec_dir),
    )
    with pytest.raises(RankFailure, match="SimulatedCrash") as failure:
        run_case_study(cfg)
    # Every rank left a black box naming the primary cause...
    dumps = sorted(os.listdir(rec_dir))
    assert [d for d in dumps if d.startswith("rank")] == \
        ["rank0.json", "rank1.json"]
    # ...and the merged post-mortem is a valid last-N-steps timeline that
    # reaches the step the crash interrupted.
    pm = merge_flight_recordings(rec_dir)
    assert pm.problems == []
    assert pm.ranks == [0, 1]
    assert any("SimulatedCrash" in r or "rank" in r
               for r in pm.reasons.values())
    # Steps 0..1 completed; the killed step-2 span still closes on unwind
    # (the tracer's context manager), so the window ends at the crash step.
    assert pm.steps == [0, 1, 2]
    assert any(s.category == "step" for s in pm.spans)
    # Each rank the crash took down holds its mark, in its window and in
    # the injector's events its box carries.
    boxes = {b.rank: b for b in load_records(rec_dir)}
    for rank in failure.value.failures:
        box = boxes[rank]
        assert any(s.name == "fault.crash" and s.category == "fault"
                   for s in box.spans), rank
        assert ("fault.crash", 2.0) in box.faults, box.faults
        assert (box.nranks, box.seed, box.backend) == (2, 0, "thread")


def test_black_boxes_dumped_on_deadlock(tmp_path):
    rec_dir = str(tmp_path / "flightrec")
    runner = ParallelRunner(
        2, sanitize=SanitizerConfig(), timeout_s=30.0,
        obs_config=ObsConfig(flight_recorder=True, flightrec_dir=rec_dir))

    def fn(comm):
        # Do a little real work first so the rings hold history...
        for i in range(3):
            comm.send(i, dest=1 - comm.rank, tag=i)
            comm.recv(source=1 - comm.rank, tag=i)
        # ...then the classic head-to-head recv cycle.
        comm.recv(source=1 - comm.rank, tag=99)
        comm.send(comm.rank, dest=1 - comm.rank, tag=99)

    with pytest.raises(RankFailure, match="DeadlockError"):
        runner.run(fn)
    pm = merge_flight_recordings(rec_dir)
    assert pm.ranks == [0, 1]
    assert pm.problems == []
    # The pre-deadlock traffic is in the window on both ranks.
    assert {s.rank for s in pm.spans} == {0, 1}
    assert any(s.name == "MPI_Send" for s in pm.spans)
