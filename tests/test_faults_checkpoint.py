"""Checkpoint/restart building blocks: atomic IO, hierarchy state,
Checkpointer manifests, Mastermind record round-trips, Chrome traces."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.euler.mesh_component import AMRMeshComponent
from repro.euler.ports import DriverParams
from repro.euler.setup import shock_interface_ic
from repro.faults.checkpoint import (CheckpointConfig, Checkpointer,
                                     hierarchy_state, hierarchy_states_equal,
                                     latest_step, load_rank_state)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, MessageFault
from repro.faults.policy import ResiliencePolicy
from repro.mpi import create_world
from repro.obs.export import (chrome_trace_from_spans,
                              dump_chrome_trace_spans,
                              validate_chrome_payload, validate_trace_file)
from repro.obs.runtime import ObsConfig
from repro.obs.span import CAT_FAULT, SpanTracer
from repro.perf.records import InvocationRecord, MethodRecord
from repro.tau.query import InvocationMeasurement
from repro.util.atomicio import (atomic_pickle, atomic_write_bytes,
                                 atomic_write_text)

PARAMS = DriverParams(nx=32, ny=32, max_levels=2, steps=2, regrid_every=0,
                      max_patch_cells=512)


def make_mesh() -> AMRMeshComponent:
    mesh = AMRMeshComponent(params=PARAMS)
    mesh.initialize(shock_interface_ic(PARAMS, 1.4))
    return mesh


# ---------------------------------------------------------------- atomicio
def test_atomic_write_round_trips(tmp_path):
    path = str(tmp_path / "data.bin")
    atomic_write_bytes(path, b"abc")
    assert open(path, "rb").read() == b"abc"
    atomic_write_text(path, "hello")
    assert open(path, encoding="utf-8").read() == "hello"
    atomic_pickle(path, {"k": [1, 2]})
    assert pickle.load(open(path, "rb")) == {"k": [1, 2]}
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_failed_atomic_write_leaves_original_intact(tmp_path, monkeypatch):
    path = str(tmp_path / "model.json")
    atomic_write_text(path, "original")

    def broken_fsync(fd):
        raise OSError("disk full")

    # A crash after the temp file is written but before the rename must
    # leave the destination untouched and clean up the temp file.
    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(path, "replacement")
    monkeypatch.undo()
    assert open(path, encoding="utf-8").read() == "original"
    assert os.listdir(tmp_path) == ["model.json"]  # temp file cleaned up


# --------------------------------------------------------- hierarchy state
def test_hierarchy_state_restore_is_bitwise():
    mesh = make_mesh()
    state = hierarchy_state(mesh.hierarchy())

    fresh = AMRMeshComponent(params=PARAMS)
    fresh.restore(state)
    assert hierarchy_states_equal(state, hierarchy_state(fresh.hierarchy()))

    h0, h1 = mesh.hierarchy(), fresh.hierarchy()
    assert h1._uid == h0._uid
    assert h1.regrid_count == h0.regrid_count
    assert h1.exchanger._tag == h0.exchanger._tag
    for lev in range(h0.max_levels):
        for p0, p1 in zip(h0.levels[lev], h1.levels[lev]):
            assert (p0.box, p0.owner, p0.uid) == (p1.box, p1.owner, p1.uid)
            for f in h0.fields:
                assert p0.data(f).tobytes() == p1.data(f).tobytes()


def test_hierarchy_states_equal_detects_field_change():
    mesh = make_mesh()
    a = hierarchy_state(mesh.hierarchy())
    b = hierarchy_state(mesh.hierarchy())
    assert hierarchy_states_equal(a, b)
    uid = next(iter(b["local_fields"]))
    b["local_fields"][uid]["rho"][0, 0] += 1e-12
    assert not hierarchy_states_equal(a, b)


def test_restore_rejects_mismatched_configuration():
    mesh = make_mesh()
    state = hierarchy_state(mesh.hierarchy())
    other = AMRMeshComponent(params=DriverParams(nx=32, ny=32, max_levels=3))
    with pytest.raises(ValueError, match="levels"):
        other.restore(state)


# ------------------------------------------------------------ checkpointer
def test_checkpointer_save_load_and_manifest(tmp_path):
    directory = str(tmp_path / "ckpt")
    ckpt = Checkpointer(CheckpointConfig(directory, every=2))
    assert latest_step(directory) is None
    assert [s for s in range(6) if ckpt.due(s)] == [1, 3, 5]

    payload = {"mesh": {"answer": np.arange(4.0)}, "next_step": 2}
    ckpt.save(1, payload)
    ckpt.save(3, {"mesh": None, "next_step": 4})
    assert latest_step(directory) == 3
    assert ckpt.saved_steps == [1, 3]
    assert ckpt.bytes_written > 0

    state = load_rank_state(directory, 1, 0)
    assert state["next_step"] == 2
    np.testing.assert_array_equal(state["mesh"]["answer"], np.arange(4.0))

    manifest = json.load(open(os.path.join(directory, "MANIFEST.json")))
    assert manifest["steps"] == [1, 3]


def test_checkpointer_disabled_config(tmp_path):
    cfg = CheckpointConfig(str(tmp_path / "never"), every=0)
    assert not cfg.enabled
    ckpt = Checkpointer(cfg)
    assert not any(ckpt.due(s) for s in range(10))
    assert not os.path.exists(cfg.directory)


def test_load_rank_state_rejects_unknown_format(tmp_path):
    directory = str(tmp_path)
    atomic_pickle(os.path.join(directory, "step-000001.rank0.ckpt"),
                  {"format": 99, "state": {}})
    with pytest.raises(ValueError, match="format 99"):
        load_rank_state(directory, 1, 0)


# --------------------------------------------------- mastermind round trip
def make_record() -> MethodRecord:
    rec = MethodRecord("sc_proxy", "compute")
    for q in (100, 200):
        rec.add(InvocationRecord(
            params={"Q": q, "mode": "x"},
            measurement=InvocationMeasurement(
                wall_us=q * 0.123456789, mpi_us=q * 0.001,
                counters={"PAPI_FP_OPS": q * 7}),
        ))
    return rec


def test_method_record_dict_round_trip_is_exact():
    rec = make_record()
    clone = MethodRecord.from_dict(rec.to_dict())
    assert clone.key == rec.key
    assert len(clone) == len(rec)
    assert clone.wall_series().tobytes() == rec.wall_series().tobytes()
    assert clone.mpi_series().tobytes() == rec.mpi_series().tobytes()
    for a, b in zip(clone.invocations, rec.invocations):
        assert a.params == b.params
        assert a.measurement.counters == b.measurement.counters


def test_mastermind_records_state_round_trip():
    from repro.perf.mastermind import Mastermind

    mm = Mastermind()
    mm._records[("sc_proxy", "compute")] = make_record()
    state = mm.records_state()
    clone = Mastermind()
    clone.restore_records(state)
    assert clone.records_state() == state
    assert len(clone.record("sc_proxy", "compute")) == 2


def test_mastermind_restore_refuses_open_invocations():
    from repro.perf.mastermind import Mastermind

    mm = Mastermind()
    mm._active[0] = object()
    with pytest.raises(RuntimeError, match="open invocation"):
        mm.restore_records([])


# ------------------------------------------------------------ chrome trace
def test_chrome_trace_events_shapes():
    clock = iter(range(100))
    tr = SpanTracer(rank=2, clock=lambda: float(next(clock)))
    with tr.span("region"):
        tr.instant("fault.drop", value=1.0)
        tr.instant("checkpoint.save", value=3.0)
    events = chrome_trace_from_spans(tr.spans(), process_name="proc")
    assert validate_chrome_payload({"traceEvents": events}) == []

    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    assert meta[0]["args"]["name"] == "proc"
    assert any(e["args"].get("name") == "rank 2" for e in meta)

    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert all(e["tid"] == 2 for e in begins + ends)
    # Marks are zero-length spans nested in the region that was open.
    assert [e["name"] for e in begins] == ["region", "fault.drop",
                                           "checkpoint.save"]
    assert [e["name"] for e in ends] == ["fault.drop", "checkpoint.save",
                                         "region"]
    assert begins[2]["args"]["value"] == 3.0
    assert ends[1]["ts"] > begins[2]["ts"]


def test_dump_chrome_trace_is_loadable_json(tmp_path):
    tr = SpanTracer(rank=0)
    tr.instant("fault.stall", value=2.5)
    path = str(tmp_path / "trace.json")
    dump_chrome_trace_spans(tr.spans(), [], path)
    assert validate_trace_file(path) == []
    payload = json.load(open(path, encoding="utf-8"))
    assert payload["displayTimeUnit"] == "ms"
    assert validate_chrome_payload(payload) == []
    names = [e["name"] for e in payload["traceEvents"]]
    assert "fault.stall" in names


def test_mpshm_fault_timeline_comes_home_and_exports(tmp_path):
    """The injector's per-rank event lists ride back from the mp-shm
    workers, and each rank's own tracer holds the same events as fault
    instants: same ``fault.*`` marks in the same per-rank order as on the
    thread backend, and the merged timeline is a valid trace."""
    plan = FaultPlan(name="ring-drops", seed=3, messages=(
        MessageFault(kind="drop", source=0, index=1, count=2),
        MessageFault(kind="delay", source=1, index=0, delay_us=50.0),
        MessageFault(kind="drop", source=2, index=3),
    ))

    def ring(comm):
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        for i in range(5):
            comm.send((comm.rank, i), dest=nxt, tag=10 + i)
        return [comm.recv(source=prv, tag=10 + i) for i in range(5)]

    marks = {}
    for backend in ("thread", "mp-shm"):
        world = create_world(backend, nranks=3, seed=5,
                             injector=FaultInjector(plan, 3),
                             policy=ResiliencePolicy(),
                             obs_config=ObsConfig())
        world.run(ring)
        injector = world.last_world.injector
        tracers = [ro.tracer for ro in world.last_world.obs]
        assert [tr.rank for tr in tracers] == [0, 1, 2]
        assert [[(s.name, s.attrs["value"]) for s in tr.spans()
                 if s.category == CAT_FAULT] for tr in tracers] == [
            list(events) for events in injector.events]
        marks[backend] = injector.schedule_signature()
        spans = sorted((s for tr in tracers for s in tr.spans()),
                       key=lambda s: (s.t_start_us, s.rank, s.span_id))
        assert {s.name for s in spans} >= {"fault.drop", "mpi.recovered"}
        path = str(tmp_path / f"faults-{backend}.json")
        dump_chrome_trace_spans(spans, [], path)
        assert validate_trace_file(path) == []
    assert marks["thread"] == marks["mp-shm"]
    assert marks["thread"] == [["fault.drop"] * 2, ["fault.delay"],
                               ["fault.drop"]]
