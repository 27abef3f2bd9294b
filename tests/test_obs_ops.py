"""Live ops endpoints: the case-study sidecar and the serve-stack routes."""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.models.fits import fit_linear
from repro.models.performance import PerformanceModel
from repro.models.serialize import ModelRepository
from repro.mpi.accounting import MPIAccounting
from repro.obs import ObsConfig, ObsSidecar, RankObs
from repro.obs.ops import fetch, parse_sse
from repro.obs.span import CAT_COMPUTE
from repro.serve.server import ModelServer, ServeConfig


@pytest.fixture
def obs(tmp_path):
    """Two live ranks with flight recorders, some history, one completed
    step."""
    cfg = ObsConfig(flight_recorder=True, flightrec_dir=str(tmp_path))
    ranks = [RankObs(r, cfg) for r in range(2)]
    for ro in ranks:
        for i in range(5):
            with ro.tracer.span(f"work{i}", CAT_COMPUTE):
                pass
        ro.ledger = MPIAccounting()
        for _ in range(3):
            ro.ledger.record("MPI_Send", 1.5)
        with ro.step(7):
            pass
    return ranks


def ask(sidecar, method, path):
    return asyncio.run(sidecar.handle(method, path))


# ---------------------------------------------------------------- handlers
def test_sidecar_requires_ranks():
    with pytest.raises(ValueError, match="at least one RankObs"):
        ObsSidecar([])


def test_metrics_endpoints(obs):
    sc = ObsSidecar(obs)
    resp = ask(sc, "GET", "/metrics")
    assert resp.status == 200
    assert resp.content_type.startswith("text/plain")
    text = resp.body.decode()
    assert 'mpi_calls_total{routine="MPI_Send"} 6' in text
    assert "tracer_spans_total" in text

    jresp = ask(sc, "GET", "/metrics.json")
    doc = json.loads(jresp.body)
    assert {m["name"] for m in doc["metrics"]} >= {
        "mpi_calls_total", "tracer_spans_total", "tracer_dropped_total"}


def test_healthz_reports_ranks_steps_and_drops(obs):
    sc = ObsSidecar(obs)
    doc = json.loads(ask(sc, "GET", "/healthz").body)
    assert doc["status"] == "ok"
    assert doc["ranks"] == 2
    assert doc["spans_total"] == 12  # (5 work + 1 step) * 2 ranks
    assert doc["last_step"] == {"0": 7, "1": 7}
    assert doc["dropped_total"] == 0

    # Force drops on one rank: status degrades and names the rank.
    obs[0].tracer.max_spans = 4
    for i in range(10):
        with obs[0].tracer.span("spill", CAT_COMPUTE):
            pass
    doc = json.loads(ask(sc, "GET", "/healthz").body)
    assert doc["status"] == "degraded"
    assert doc["dropped_by_rank"] == {"0": obs[0].tracer.dropped_count}


def test_healthz_reports_last_step_without_a_recorder():
    # The last step comes from the step seam, not the flight recorder, so
    # a default-observed case study reports it too.
    res = run_case_study(CaseStudyConfig(
        params=DriverParams(nx=16, ny=16, max_levels=1, steps=2),
        nranks=2, observe=ObsConfig()))
    assert not any(ro.config.flight_recorder for ro in res.world.obs)
    sc = ObsSidecar(res.world.obs)
    assert json.loads(ask(sc, "GET", "/healthz").body)["last_step"] == \
        {"0": 1, "1": 1}
    assert sc.live_snapshot()["last_step"] == {"0": 1, "1": 1}


def test_debug_spans_merged_and_capped(obs):
    sc = ObsSidecar(obs, debug_spans=8)
    doc = json.loads(ask(sc, "GET", "/debug/spans").body)
    assert len(doc["spans"]) == 8
    starts = [s["t_start_us"] for s in doc["spans"]]
    assert starts == sorted(starts)
    assert {s["rank"] for s in doc["spans"]} == {0, 1}
    assert doc["dropped"] == 0 and doc["sampled_out"] == 0


def test_unknown_route_and_method(obs):
    sc = ObsSidecar(obs)
    assert ask(sc, "GET", "/nope").status == 404
    assert ask(sc, "POST", "/metrics").status == 405


def test_live_snapshot_fields(obs):
    snap = ObsSidecar(obs).live_snapshot()
    assert snap["spans_total"] == 12
    assert snap["ops_total"] == sum(ro.tracer.ops for ro in obs)
    assert snap["last_step"]["1"] == 7
    assert snap["t_us"] > 0


# ----------------------------------------------------------- real sockets
def test_sidecar_serves_real_http(obs):
    with ObsSidecar(obs, live_interval_s=0.05) as sc:
        assert sc.port != 0
        status, body = fetch(sc.url + "/healthz")
        assert status == 200
        assert json.loads(body)["ranks"] == 2
        status, body = fetch(sc.url + "/metrics")
        assert b"tracer_spans_total" in body

        # SSE stream: read a couple of frames off a raw socket.
        with socket.create_connection(("127.0.0.1", sc.port), timeout=5) as s:
            s.sendall(b"GET /live HTTP/1.1\r\nHost: x\r\n\r\n")
            s.settimeout(5.0)
            buf = b""
            while buf.count(b"\n\n") < 2:
                chunk = s.recv(4096)
                if not chunk:
                    break
                buf += chunk
    assert b"200 OK" in buf
    assert b"text/event-stream" in buf
    events = parse_sse(buf.split(b"\r\n\r\n", 1)[-1])
    assert len(events) >= 1
    assert all(e["spans_total"] == 12 for e in events)
    # Context exit stopped the server thread.
    assert sc._thread is None


def test_sidecar_start_twice_rejected(obs):
    with ObsSidecar(obs) as sc:
        with pytest.raises(RuntimeError, match="already started"):
            sc.start()
    sc.stop()  # idempotent after exit


# ------------------------------------------------------- serve-stack routes
@pytest.fixture
def models_dir(tmp_path):
    repo = ModelRepository(str(tmp_path / "models"))
    q = np.array([1e3, 1e4, 1e5])
    repo.store("flux", PerformanceModel("Cheap", fit_linear(q, 0.1 * q)))
    return str(tmp_path / "models")


def drive(server, *requests):
    async def main():
        async with server:
            return [await server.handle(m, p, b) for m, p, b in requests]
    return asyncio.run(main())


def test_serve_debug_spans_traced(models_dir):
    from repro.obs.span import SpanTracer
    tracer = SpanTracer(rank=0)
    server = ModelServer(models_dir, tracer=tracer)
    body = json.dumps({"component": "Cheap", "q": 1e4}).encode()
    resps = drive(server,
                  ("POST", "/v1/predict", body),
                  ("GET", "/healthz", b""),
                  ("GET", "/debug/spans", b""))
    assert [r.status for r in resps] == [200, 200, 200]
    health = json.loads(resps[1].body)
    assert health["queue_depth"] == 0
    doc = json.loads(resps[2].body)
    names = [s["name"] for s in doc["spans"]]
    assert "/v1/predict" in names and "/healthz" in names
    by_name = {s["name"]: s for s in doc["spans"]}
    assert by_name["/v1/predict"]["attrs"]["status"] == 200
    assert by_name["/v1/predict"]["category"] == "serve"


def test_serve_debug_spans_without_tracer(models_dir):
    server = ModelServer(models_dir)
    (resp,) = drive(server, ("GET", "/debug/spans", b""))
    assert json.loads(resp.body) == {"spans": [], "tracing": "off"}


def test_serve_live_snapshot(models_dir):
    server = ModelServer(models_dir)
    body = json.dumps({"component": "Cheap", "q": 1e4}).encode()
    drive(server, ("POST", "/v1/predict", body))
    snap = server.live_snapshot()
    assert snap["models"] == 1
    assert snap["queue_depth"] == 0
    assert snap["requests_total"] >= 1.0
    assert snap["model_version"] == server.store.snapshot.version
    assert "t_us" in snap
