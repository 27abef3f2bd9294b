"""ModelServer endpoints: routing, failure contract, HTTP front end."""

import asyncio
import json

import numpy as np
import pytest

from repro.models.fits import fit_linear
from repro.models.performance import PerformanceModel
from repro.models.serialize import ModelRepository
from repro.serve.server import ModelServer, ServeConfig

Q = np.array([1e3, 1e4, 1e5])


@pytest.fixture
def models_dir(tmp_path):
    repo = ModelRepository(str(tmp_path))
    repo.store("flux", PerformanceModel(
        "Cheap", fit_linear(Q, 0.1 * Q), quality=0.6))
    repo.store("flux", PerformanceModel(
        "Costly", fit_linear(Q, 1.0 * Q), quality=0.99))
    repo.store("states", PerformanceModel(
        "States[strided]", fit_linear(Q, 0.4 * Q)))
    return str(tmp_path)


def drive(models_dir, *requests, config=None):
    """Run a list of (method, path, body) through one server lifecycle."""
    server = ModelServer(models_dir, config=config)

    async def main():
        async with server:
            out = []
            for method, path, body in requests:
                out.append(await server.handle(method, path, body))
            return out

    return server, asyncio.run(main())


def body_of(resp) -> dict:
    return json.loads(resp.body)


def test_healthz_reports_version_and_count(models_dir):
    server, (resp,) = drive(models_dir, ("GET", "/healthz", b""))
    assert resp.status == 200
    doc = body_of(resp)
    assert doc["status"] == "ok"
    assert doc["models"] == 3
    assert doc["model_version"] == server.store.snapshot.version


def test_healthz_503_when_no_models(tmp_path):
    _, (resp,) = drive(str(tmp_path / "empty"), ("GET", "/healthz", b""))
    assert resp.status == 503
    assert body_of(resp)["status"] == "unavailable"


def test_models_catalog(models_dir):
    _, (resp,) = drive(models_dir, ("GET", "/v1/models", b""))
    assert resp.status == 200
    doc = body_of(resp)
    names = {(m["component"], m["mode"]) for m in doc["models"]}
    assert names == {("Cheap", None), ("Costly", None), ("States", "strided")}
    assert all(m["functionality"] in ("flux", "states")
               for m in doc["models"])


def test_models_catalog_is_encoded_once_per_snapshot(models_dir):
    server = ModelServer(models_dir)

    async def main():
        async with server:
            first = await server.handle("GET", "/v1/models")
            again = await server.handle("GET", "/v1/models")
            ModelRepository(models_dir).store("flux", PerformanceModel(
                "Newer", fit_linear(Q, 0.5 * Q)))
            assert server.store.refresh()
            reloaded = await server.handle("GET", "/v1/models")
            return first, again, reloaded

    first, again, reloaded = asyncio.run(main())
    assert again.body is first.body
    doc = body_of(reloaded)
    assert doc["model_version"] == server.store.snapshot.version
    assert doc["model_version"] != body_of(first)["model_version"]
    assert "Newer" in {m["component"] for m in doc["models"]}


def test_predict_roundtrip(models_dir):
    req = json.dumps({"component": "Cheap", "q": 1e4}).encode()
    server, (resp,) = drive(models_dir, ("POST", "/v1/predict", req))
    assert resp.status == 200
    doc = body_of(resp)
    pred = doc["prediction"]
    assert pred["component"] == "Cheap"
    assert pred["mean_us"] == pytest.approx(0.1 * pred["q_bucket"], rel=1e-6)
    assert doc["model_version"] == server.store.snapshot.version


def test_predict_with_mode(models_dir):
    req = json.dumps({"component": "States", "q": 1e4,
                      "mode": "strided"}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/predict", req))
    assert resp.status == 200
    assert body_of(resp)["prediction"]["mode"] == "strided"


@pytest.mark.parametrize("payload, fragment", [
    (b"{not json", "not valid JSON"),
    (b"[]", "expected a JSON object"),
    (b'{"q": 10.0}', "missing required key 'component'"),
    (b'{"component": "Cheap"}', "missing required key 'q'"),
    (b'{"component": "Cheap", "q": -1}', "must be > 0"),
    (b'{"component": "Cheap", "q": true}', "must be a number"),
    (b'{"component": "Cheap", "q": 1e4, "mode": 7}', "non-empty string"),
])
def test_predict_400_names_the_field(models_dir, payload, fragment):
    _, (resp,) = drive(models_dir, ("POST", "/v1/predict", payload))
    assert resp.status == 400
    assert fragment in body_of(resp)["error"]


def test_unknown_component_404(models_dir):
    req = json.dumps({"component": "NoSuch", "q": 1e4}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/predict", req))
    assert resp.status == 404
    assert "unknown model" in body_of(resp)["error"]


def test_unknown_route_404_and_wrong_method_405(models_dir):
    _, (a, b) = drive(models_dir,
                      ("GET", "/v1/nope", b""),
                      ("GET", "/v1/predict", b""))
    assert a.status == 404
    assert b.status == 405
    assert "not allowed" in body_of(b)["error"]


def test_empty_store_predict_503_with_retry_after(tmp_path):
    req = json.dumps({"component": "X", "q": 1.0}).encode()
    _, (resp,) = drive(str(tmp_path / "empty"), ("POST", "/v1/predict", req))
    assert resp.status == 503
    assert dict(resp.headers)["Retry-After"] == "1"


def test_batch_preserves_order_and_single_version(models_dir):
    qs = [3e3, 1e4, 9e4, 3e3]
    req = json.dumps({"requests": [
        {"component": "Cheap", "q": q} for q in qs]}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/predict/batch", req))
    assert resp.status == 200
    doc = body_of(resp)
    assert [p["q"] for p in doc["predictions"]] == qs
    assert doc["model_version"]


def test_batch_empty_is_400(models_dir):
    _, (resp,) = drive(models_dir, ("POST", "/v1/predict/batch",
                                    b'{"requests": []}'))
    assert resp.status == 400
    assert "non-empty" in body_of(resp)["error"]


def test_optimize_picks_cheapest_binding(models_dir):
    req = json.dumps({"slots": [
        {"slot": "flux", "q_values": [1e4, 2e4], "counts": [3, 1]}]}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/optimize", req))
    assert resp.status == 200
    doc = body_of(resp)
    assert doc["best"]["binding"] == {"flux": "Cheap"}
    assert doc["search_space"] == 2
    assert len(doc["ranked"]) == 2
    assert doc["ranked"][0]["cost_us"] < doc["ranked"][1]["cost_us"]


def test_optimize_qos_weight_flips_the_choice(models_dir):
    slots = [{"slot": "flux", "q_values": [1e3]}]
    req = json.dumps({"slots": slots, "qos_weight": 1e9}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/optimize", req))
    assert resp.status == 200
    # Costly's quality 0.99 vs Cheap's 0.6: a huge QoS weight prefers it
    # despite the 10x cost (score = cost * (1 + w * (1 - quality))).
    assert body_of(resp)["best"]["binding"] == {"flux": "Costly"}


def test_optimize_unknown_functionality_404(models_dir):
    req = json.dumps({"slots": [
        {"slot": "chemistry", "q_values": [1.0]}]}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/optimize", req))
    assert resp.status == 404
    assert "chemistry" in body_of(resp)["error"]


def test_optimize_infeasible_min_quality_400(models_dir):
    req = json.dumps({"slots": [{"slot": "flux", "q_values": [1.0]}],
                      "min_quality": 2.0}).encode()
    _, (resp,) = drive(models_dir, ("POST", "/v1/optimize", req))
    assert resp.status == 400
    assert "min_quality" in body_of(resp)["error"]


def test_metrics_expositions(models_dir):
    req = json.dumps({"component": "Cheap", "q": 1e4}).encode()
    _, (_, prom, js) = drive(models_dir,
                             ("POST", "/v1/predict", req),
                             ("GET", "/metrics", b""),
                             ("GET", "/metrics.json", b""))
    assert prom.status == 200
    assert prom.content_type.startswith("text/plain")
    text = prom.body.decode()
    assert "serve_requests_total" in text
    assert "serve_latency_us" in text
    assert "serve_cache_entries" in text
    doc = json.loads(js.body)
    assert any(m["name"] == "serve_requests_total" for m in doc["metrics"])


def test_load_shed_returns_503_with_retry_after(models_dir):
    config = ServeConfig(queue_limit=1, bucket_per_decade=None)
    server = ModelServer(models_dir, config=config)

    async def main():
        async with server:
            reqs = [json.dumps({"component": "Cheap",
                                "q": 1e3 + i}).encode() for i in range(16)]
            return await asyncio.gather(
                *(server.handle("POST", "/v1/predict", r) for r in reqs))

    responses = asyncio.run(main())
    shed = [r for r in responses if r.status == 503]
    ok = [r for r in responses if r.status == 200]
    assert shed and ok
    assert all(dict(r.headers)["Retry-After"] == "1" for r in shed)
    assert server.metrics.counter("serve_shed_total").value == len(shed)


# ------------------------------------------------------------ HTTP front
async def _http_request(host, port, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


def test_http_front_end_over_real_sockets(models_dir):
    """Keep-alive, JSON round-trip and 413 over an actual TCP socket."""
    config = ServeConfig(max_body_bytes=512)
    server = ModelServer(models_dir, config=config)

    async def main():
        async with server:
            listener = await server.serve_http(port=0)
            port = listener.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                # Two requests on one keep-alive connection.
                body = json.dumps({"component": "Cheap", "q": 1e4}).encode()
                writer.write(
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"\r\n" + body)
                writer.write(b"GET /healthz HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()

                # Oversized body on a fresh connection: 413, then close.
                big = b"x" * 600
                raw413 = await _http_request(
                    "127.0.0.1", port,
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(big)).encode() + b"\r\n"
                    b"\r\n" + big)
                return raw, raw413
            finally:
                listener.close()
                await listener.wait_closed()

    raw, raw413 = asyncio.run(main())
    text = raw.decode("latin-1")
    assert text.startswith("HTTP/1.1 200 OK\r\n")
    assert text.count("HTTP/1.1 200") == 2  # both pipelined answers arrived
    assert '"model_version"' in text
    assert raw413.decode("latin-1").startswith("HTTP/1.1 413 ")


def test_hostile_request_gets_400_and_the_server_answers_the_next(models_dir):
    """A negative Content-Length is answered 400 over a real socket, and a
    second connection is served normally afterwards."""
    server = ModelServer(models_dir)

    async def main():
        async with server:
            listener = await server.serve_http(port=0)
            port = listener.sockets[0].getsockname()[1]
            try:
                bad = await _http_request(
                    "127.0.0.1", port,
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: -1\r\n\r\n")
                good = await _http_request(
                    "127.0.0.1", port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                return bad, good
            finally:
                listener.close()
                await listener.wait_closed()

    bad, good = asyncio.run(main())
    assert bad.decode("latin-1").startswith("HTTP/1.1 400 ")
    assert good.decode("latin-1").startswith("HTTP/1.1 200 OK\r\n")


def test_batch_overflowing_the_queue_is_shed_whole(models_dir):
    config = ServeConfig(queue_limit=2, bucket_per_decade=None)
    server = ModelServer(models_dir, config=config)
    req = json.dumps({"requests": [
        {"component": "Cheap", "q": 1e3 + i} for i in range(4)]}).encode()

    async def main():
        async with server:
            shed = await server.handle("POST", "/v1/predict/batch", req)
            await asyncio.sleep(0.01)  # let the dispatcher drain the queue
            return shed, await server.handle("POST", "/v1/predict/batch", req)

    shed, retried = asyncio.run(main())
    assert shed.status == 503
    assert dict(shed.headers)["Retry-After"] == "1"
    assert server.metrics.counter("serve_shed_total").value >= 1
    # the two queued before the shed were still evaluated and cached
    assert retried.status == 200
    assert [p["cached"] for p in body_of(retried)["predictions"]] == [
        True, True, False, False]
