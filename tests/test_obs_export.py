"""Perfetto export and validation tests (satellites 1 and 3).

The exported trace must be machine-checkable: ``json.loads`` round trip,
globally monotone timestamps, balanced B/E pairs per track, every flow id
resolving to both endpoints — and a truncated trace must say so loudly.
"""

import json

import pytest

from repro.mpi.runner import ParallelRunner
from repro.obs.export import (chrome_trace_from_spans, timeline,
                              validate_chrome_payload, validate_trace_file,
                              write_metrics, write_trace)
from repro.obs.record import SpanDropWarning, collect, reset_drop_warning
from repro.obs.runtime import ObsConfig, RankObs
from repro.obs.span import CAT_COMPUTE, CAT_MPI, FLOW_COLL, SpanTracer


@pytest.fixture(scope="module")
def ring_run():
    """A 3-rank ring exchange with a closing barrier, traced."""
    runner = ParallelRunner(3, obs_config=ObsConfig())

    def main(comm):
        dest = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        comm.send(("payload", comm.rank), dest=dest, tag=7)
        got = comm.recv(source=src, tag=7)
        comm.barrier()
        return got

    results = runner.run(main)
    return runner.last_world, results


def test_collect_merges_and_orders(ring_run):
    world, results = ring_run
    assert [r[1] for r in results] == [2, 0, 1]
    records = collect(world)
    assert [r.rank for r in records] == [0, 1, 2]
    spans, _ = timeline(records)
    assert {s.rank for s in spans} == {0, 1, 2}
    starts = [s.t_start_us for s in spans]
    assert starts == sorted(starts)
    # 3 sends, 3 recvs, 3 barrier participations.
    names = [s.name for s in spans]
    assert names.count("MPI_Send") == 3
    assert names.count("MPI_Recv") == 3
    assert names.count("MPI_Barrier") == 3
    assert all(r.overhead["dropped"] == 0 for r in records)


def _check_one_collective_flow_point_per_rank(backend):
    """Each participant anchors the one flow id all of a collective's
    ranks share exactly once; the tree's hops are transport, not edges."""
    runner = ParallelRunner(3, obs_config=ObsConfig(), backend=backend)

    def main(comm):
        comm.barrier()
        comm.bcast(comm.rank, root=1)
        comm.allreduce(1)
        comm.allgather(comm.rank)
        comm.gather(comm.rank, root=2)
        comm.scan(1)
        comm.dup().barrier()

    runner.run(main)
    _, flows = timeline(collect(runner.last_world))
    ids = [f"c:world:{i}" for i in range(7)] + ["c:world/dup1:0"]
    for rank in range(3):
        assert [f.flow_id for f in flows
                if f.kind == FLOW_COLL and f.rank == rank] == ids


@pytest.mark.parametrize("family", [None, "flat", "hier"])
def test_one_collective_flow_point_per_rank_under_every_family(
        family, refuse_family):
    refuse_family(family)
    _check_one_collective_flow_point_per_rank("thread")


def test_one_collective_flow_point_per_rank_on_mp_shm():
    _check_one_collective_flow_point_per_rank("mp-shm")


def test_collect_requires_observability():
    runner = ParallelRunner(2)
    runner.run(lambda comm: comm.barrier())
    with pytest.raises(ValueError, match="observe=ObsConfig"):
        collect(runner.last_world)


def test_trace_file_round_trips_and_validates(ring_run, tmp_path):
    world, _ = ring_run
    path = str(tmp_path / "trace.json")
    write_trace(collect(world), path)
    payload = json.load(open(path, encoding="utf-8"))  # satellite 3: json.loads
    assert validate_trace_file(path) == []

    events = payload["traceEvents"]
    timed = [e for e in events if e.get("ph") != "M"]
    ts = [e["ts"] for e in timed]
    assert ts == sorted(ts)
    assert sum(1 for e in events if e.get("ph") == "B") == \
        sum(1 for e in events if e.get("ph") == "E")
    # Every flow has both endpoints: 3 p2p arrows + barrier arrows.
    s_ids = {e["id"] for e in events if e.get("ph") == "s"}
    f_ids = {e["id"] for e in events if e.get("ph") == "f"}
    assert s_ids == f_ids
    assert len(s_ids) >= 3 + 2  # 3 p2p + last-arriver edges to 2 others


def test_metrics_files(ring_run, tmp_path):
    world, _ = ring_run
    jpath, ppath = str(tmp_path / "m.json"), str(tmp_path / "m.prom")
    merged = write_metrics(collect(world), json_path=jpath,
                           prometheus_path=ppath)
    snap = json.loads(open(jpath, encoding="utf-8").read())
    names = {m["name"] for m in snap["metrics"]}
    assert {"mpi_calls_total", "mpi_cost_us_total", "mpi_bytes_sent_total",
            "tracer_spans_total", "tracer_dropped_total"} <= names
    text = open(ppath, encoding="utf-8").read()
    assert 'mpi_calls_total{routine="MPI_Send"} 3' in text
    assert merged.counter("mpi_calls_total", routine="MPI_Barrier").value == 3.0
    # The MPI series are the ledgers' rows, summed over ranks in rank order.
    cost = 0.0
    for ledger in world.accounting:
        cost += ledger.routine_totals()["MPI_Send"].total_us
    assert merged.counter("mpi_cost_us_total", routine="MPI_Send").value == cost


# ------------------------------------------------- loud truncation markers
def test_dropped_spans_surface_loudly(tmp_path):
    ro = RankObs(0, ObsConfig(max_spans=8, flightrec_depth=4))
    tr = ro.tracer
    for i in range(30):
        tr.end(tr.start(f"w{i}", CAT_COMPUTE))
    assert tr.dropped_count > 0
    # The drop alert fires once per run as a dedicated warning category.
    reset_drop_warning()
    with pytest.warns(SpanDropWarning, match="trace history"):
        records = collect([ro])
    assert records[0].overhead["dropped"] == tr.dropped_count
    # ...and only once: a second collect stays quiet.
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", SpanDropWarning)
        collect([ro])
    reset_drop_warning()

    path = str(tmp_path / "truncated.json")
    write_trace(records, path)
    payload = json.load(open(path, encoding="utf-8"))
    # otherData carries the per-rank count...
    assert payload["otherData"]["dropped_spans"] == {"0": tr.dropped_count}
    # ...and the timeline itself shouts at t=0.
    shouts = [e for e in payload["traceEvents"]
              if e.get("ph") == "i" and "TRUNCATED" in e.get("name", "")]
    assert len(shouts) == 1
    assert shouts[0]["args"]["dropped"] == tr.dropped_count
    # The merged metrics echo the drop count too.
    merged = write_metrics(records)
    assert merged.counter("tracer_dropped_total").value == float(tr.dropped_count)


# ------------------------------------------------------- validator catches
def _valid_payload():
    tr = SpanTracer(rank=0)
    with tr.span("a", CAT_MPI) as s:
        tr.flow_out("1", s)
    tr2 = SpanTracer(rank=1)
    with tr2.span("b", CAT_MPI) as r:
        tr2.flow_in("1", r)
    spans = tr.spans() + tr2.spans()
    flows = tr.flows() + tr2.flows()
    return {"traceEvents": chrome_trace_from_spans(spans, flows)}


def test_validator_accepts_well_formed():
    assert validate_chrome_payload(_valid_payload()) == []


def test_validator_flags_shape_problems():
    assert validate_chrome_payload([]) != []
    assert validate_chrome_payload({"nope": 1}) != []
    assert validate_chrome_payload({"traceEvents": "x"}) != []


def test_validator_flags_unbalanced_b_e():
    payload = _valid_payload()
    payload["traceEvents"] = [e for e in payload["traceEvents"]
                              if e.get("ph") != "E"]
    problems = validate_chrome_payload(payload)
    assert any("unclosed B" in p for p in problems)


def test_validator_flags_non_monotone_ts():
    payload = _valid_payload()
    timed = [e for e in payload["traceEvents"] if e.get("ph") != "M"]
    timed[0]["ts"] = timed[-1]["ts"] + 1e6
    problems = validate_chrome_payload(payload)
    assert any("timestamp" in p for p in problems)


def test_validator_flags_dangling_flow():
    payload = _valid_payload()
    payload["traceEvents"] = [e for e in payload["traceEvents"]
                              if e.get("ph") != "f"]
    problems = validate_chrome_payload(payload)
    assert any("missing 'f' endpoint" in p for p in problems)


def test_validator_flags_unreadable_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert validate_trace_file(str(bad)) != []
    assert validate_trace_file(str(tmp_path / "absent.json")) != []
