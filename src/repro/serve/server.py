"""The serving application: routes, handlers and the asyncio HTTP front.

Two layers, deliberately separable:

* :class:`ModelServer` — the pure application.  ``await
  server.handle(method, path, body)`` returns a :class:`Response`; no
  sockets involved.  The load generator and the tests drive this layer
  directly (in-process serving), so measured throughput is the service's
  own cost, not loopback-TCP's.

* :meth:`ModelServer.serve_http` — a minimal HTTP/1.1 front end on
  ``asyncio`` streams (stdlib only): request line + headers +
  Content-Length body, keep-alive, one task per connection.  Everything
  it does is delegate to ``handle``.

Endpoints::

    GET  /healthz            liveness + model version + queue depth
    GET  /v1/models          model catalog
    POST /v1/predict         one prediction
    POST /v1/predict/batch   many predictions, one vectorized evaluation
    POST /v1/optimize        assembly recommendation over stored candidates
    GET  /metrics            Prometheus text exposition
    GET  /metrics.json       the same registry as JSON
    GET  /debug/spans        recent request spans (requires a tracer)
    GET  /live               SSE stream of periodic serving aggregates

Failure contract: malformed payloads are 400 with the offending field
named; unknown models 404; no models loaded or queue full 503 with
``Retry-After``; oversized bodies 413.  Every response from the model
path carries ``model_version`` so clients can detect reloads.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.models.composite import CompositeModel, Workload
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.span import SpanTracer
from repro.perf.optimizer import AssemblyOptimizer
from repro.serve.batching import LoadShedError, MicroBatcher
from repro.serve.cache import PredictionCache, QBucketer
from repro.serve.schema import (AssemblyChoice, BatchPredictRequest,
                                EncodedPrediction, OptimizeRequest,
                                OptimizeResponse, PredictRequest,
                                ValidationError, batch_predict_body,
                                predict_body)
from repro.serve.store import (ModelSnapshot, ModelUnavailable,
                               ServingModelStore, UnknownModel)
from repro.util.httpd import Response, serve_connection
from repro.util.timebase import Clock, now_us

__all__ = ["Response", "ServeConfig", "ModelServer"]

#: latency histogram buckets: 1 us .. 10 s, six per decade
_LATENCY_BOUNDS = tuple(10.0 ** (k / 6.0) for k in range(43))


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving stack (defaults sized for the case study)."""

    #: Q quantization resolution (buckets per decade); None = exact-Q keys
    bucket_per_decade: int | None = 64
    cache_capacity: int = 4096
    #: prediction TTL in seconds; None = entries live until evicted
    cache_ttl_s: float | None = None
    max_batch: int = 512
    queue_limit: int = 2048
    reload_interval_s: float = 0.5
    max_body_bytes: int = 8 * 1024 * 1024
    #: cap on ranked assemblies returned by /v1/optimize
    optimize_top_max: int = 50
    #: period of the SSE ``/live`` aggregate stream
    live_interval_s: float = 0.5
    #: spans returned by ``/debug/spans``
    debug_spans: int = 100


_Handler = Callable[["ModelServer", bytes], Awaitable[Response]]


class ModelServer:
    """The serving application over one model repository directory."""

    def __init__(self, models_dir: str, config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 clock: Clock | None = None,
                 tracer: SpanTracer | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional request tracer feeding /debug/spans (requests are
        #: sampled 1-in-N by its ``sample_every``)
        self.tracer = tracer
        self.store = ServingModelStore(models_dir)
        ttl_us = (None if self.config.cache_ttl_s is None
                  else self.config.cache_ttl_s * 1e6)
        self.cache: PredictionCache[tuple, EncodedPrediction] = PredictionCache(
            capacity=self.config.cache_capacity, ttl_us=ttl_us,
            clock=clock, metrics=self.metrics)
        self.batcher = MicroBatcher(
            self.store, self.cache, QBucketer(self.config.bucket_per_decade),
            metrics=self.metrics, max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit)
        self._reload_retry_after = str(
            max(1, math.ceil(self.config.reload_interval_s)))
        # Per-route instruments, fetched from the registry on a route's
        # (and a status's) first request and kept.
        self._latency: dict[str, Histogram] = {}
        self._requests: dict[tuple[str, int], Counter] = {}
        #: the catalog reply and the snapshot it was encoded from
        self._models_reply: tuple[ModelSnapshot, Response] | None = None
        self._stop = asyncio.Event()
        self._watcher: asyncio.Task | None = None
        self._routes: dict[tuple[str, str], _Handler] = {
            ("GET", "/healthz"): ModelServer._handle_healthz,
            ("GET", "/v1/models"): ModelServer._handle_models,
            ("POST", "/v1/predict"): ModelServer._handle_predict,
            ("POST", "/v1/predict/batch"): ModelServer._handle_predict_batch,
            ("POST", "/v1/optimize"): ModelServer._handle_optimize,
            ("GET", "/metrics"): ModelServer._handle_metrics_prom,
            ("GET", "/metrics.json"): ModelServer._handle_metrics_json,
            ("GET", "/debug/spans"): ModelServer._handle_debug_spans,
        }

    # --------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the batch dispatcher and the model-directory watcher."""
        self._stop.clear()
        self.batcher.start()
        if self._watcher is None or self._watcher.done():
            self._watcher = asyncio.get_running_loop().create_task(
                self.store.watch(self.config.reload_interval_s,
                                 stop=self._stop),
                name="serve-watcher")

    async def stop(self) -> None:
        self._stop.set()
        await self.batcher.stop()
        if self._watcher is not None:
            try:
                await self._watcher
            except asyncio.CancelledError:
                pass
            self._watcher = None

    async def __aenter__(self) -> "ModelServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ----------------------------------------------------------- routing
    async def handle(self, method: str, path: str,
                     body: bytes = b"") -> Response:
        """Dispatch one request; never raises (errors become responses)."""
        handler = self._routes.get((method, path))
        if handler is None:
            if any(p == path for (_m, p) in self._routes):
                resp = Response.error(405, f"method {method} not allowed "
                                           f"for {path}")
            else:
                resp = Response.error(404, f"no route for {method} {path}")
        else:
            span = (self.tracer.start(path, "serve", sampled=True)
                    if self.tracer is not None else None)
            t0 = now_us()
            resp = await self._guarded(handler, body)
            latency = self._latency.get(path)
            if latency is None:
                latency = self._latency[path] = self.metrics.histogram(
                    "serve_latency_us", "request latency by route",
                    bounds=_LATENCY_BOUNDS, route=path)
            latency.observe(now_us() - t0)
            key = (path, resp.status)
            requests = self._requests.get(key)
            if requests is None:
                requests = self._requests[key] = self.metrics.counter(
                    "serve_requests_total", "requests by route and status",
                    route=path, status=str(resp.status))
            requests.inc()
            if self.tracer is not None:
                if span is not None:
                    span.attrs["status"] = resp.status
                self.tracer.end(span)
        return resp

    async def _guarded(self, handler: _Handler, body: bytes) -> Response:
        try:
            return await handler(self, body)
        except ValidationError as exc:
            return Response.error(400, str(exc))
        except UnknownModel as exc:
            return Response.error(404, f"unknown model: {exc.args[0]}")
        except ModelUnavailable:
            return Response.error(
                503, "no models loaded; repository is empty or reloading",
                headers=(("Retry-After", self._reload_retry_after),))
        except LoadShedError as exc:
            return Response.error(
                503, str(exc), headers=(("Retry-After", "1"),))

    @staticmethod
    def _parse_json(body: bytes, where: str) -> Any:
        try:
            return json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: body is not valid JSON "
                                  f"({exc.msg} at pos {exc.pos})") from None

    # ---------------------------------------------------------- handlers
    async def _handle_healthz(self, body: bytes) -> Response:
        snap = self.store.snapshot
        ok = len(snap) > 0
        return Response.json(200 if ok else 503, {
            "status": "ok" if ok else "unavailable",
            "model_version": snap.version,
            "models": len(snap),
            "reloads": self.store.reloads,
            "queue_depth": self.batcher.queue_depth,
        })

    async def _handle_models(self, body: bytes) -> Response:
        # The catalog is a function of the immutable snapshot: encode it
        # once per snapshot, and a reload's new snapshot gets a new body.
        snap = self.store.snapshot
        if self._models_reply is None or self._models_reply[0] is not snap:
            self._models_reply = (snap, Response.json(200, {
                "model_version": snap.version,
                "models": [m.to_obj() for m in snap.catalog()],
            }))
        return self._models_reply[1]

    async def _handle_predict(self, body: bytes) -> Response:
        req = PredictRequest.from_obj(
            self._parse_json(body, "predict request"))
        pred, cached = await self.batcher.predict(req)
        return Response(status=200, body=predict_body(pred, req.q, cached))

    async def _handle_predict_batch(self, body: bytes) -> Response:
        batch = BatchPredictRequest.from_obj(
            self._parse_json(body, "batch predict request"))
        # Hits are answered in place; only the misses wait for a flush.
        results: list = []
        misses: dict[int, asyncio.Future] = {}
        try:
            for i, req in enumerate(batch.requests):
                q_bucket, hit = self.batcher.lookup(req)
                if hit is None:
                    hit = misses[i] = self.batcher.enqueue(req, q_bucket)
                results.append(hit)
        except LoadShedError:
            for future in misses.values():
                future.cancel()
            raise
        if misses:
            answers = await asyncio.gather(*misses.values())
            for i, answer in zip(misses, answers):
                results[i] = answer
        # All sub-requests of one batch must answer from one model set;
        # a reload races the flushes only at the boundary between them.
        versions = {pred.version for pred in results}
        if len(versions) > 1:
            return Response.error(
                503, "model reload raced this batch; retry",
                headers=(("Retry-After", "1"),))
        return Response(status=200, body=batch_predict_body(
            versions.pop(),
            [pred.render(req.q, i not in misses) for i, (pred, req)
             in enumerate(zip(results, batch.requests))]))

    async def _handle_optimize(self, body: bytes) -> Response:
        req = OptimizeRequest.from_obj(
            self._parse_json(body, "optimize request"))
        snap = self.store.snapshot
        if len(snap) == 0:
            raise ModelUnavailable("no models loaded")
        composite = CompositeModel()
        candidates = {}
        for spec in req.slots:
            pool = snap.candidates(spec.slot)
            if not pool:
                return Response.error(
                    404, f"no candidate models stored under functionality "
                         f"{spec.slot!r}")
            candidates[spec.slot] = pool
            composite.add_node(spec.slot,
                               Workload(spec.q_values, spec.counts),
                               slot=spec.slot, comm_us=spec.comm_us)
        optimizer = AssemblyOptimizer(composite, candidates)
        try:
            result = optimizer.optimize(qos_weight=req.qos_weight,
                                        min_quality=req.min_quality)
        except ValueError as exc:
            return Response.error(400, f"optimize request: {exc}")
        top = min(req.top, self.config.optimize_top_max)
        choices = tuple(
            AssemblyChoice(binding=ra.binding_names(), cost_us=ra.cost_us,
                           quality=ra.quality, score=ra.score)
            for ra in result.ranked[:top])
        return Response.json(200, OptimizeResponse(
            best=choices[0], ranked=choices,
            search_space=optimizer.search_space_size(),
            model_version=snap.version).to_obj())

    async def _handle_metrics_prom(self, body: bytes) -> Response:
        return Response(status=200, body=self.metrics.to_prometheus().encode(),
                        content_type="text/plain; version=0.0.4")

    async def _handle_metrics_json(self, body: bytes) -> Response:
        return Response(status=200, body=self.metrics.to_json().encode())

    async def _handle_debug_spans(self, body: bytes) -> Response:
        if self.tracer is None:
            return Response.json(200, {"spans": [], "tracing": "off"})
        spans = self.tracer.recent_spans(self.config.debug_spans)
        return Response.json(200, {
            "spans": [s.to_dict() for s in spans],
            "dropped": self.tracer.dropped_count,
            "sampled_out": self.tracer.sampled_out,
        })

    # ----------------------------------------------------- live stream
    def live_snapshot(self) -> dict[str, Any]:
        """One frame of the SSE ``/live`` stream: serving aggregates."""
        snap = self.store.snapshot
        requests = sum(
            inst.value for name, _lk, inst in self.metrics.series()
            if name == "serve_requests_total")
        frame: dict[str, Any] = {
            "t_us": now_us(),
            "model_version": snap.version,
            "models": len(snap),
            "reloads": self.store.reloads,
            "queue_depth": self.batcher.queue_depth,
            "requests_total": requests,
        }
        if self.tracer is not None:
            frame["spans"] = len(self.tracer)
            frame["dropped"] = self.tracer.dropped_count
        return frame

    # ------------------------------------------------------ HTTP front
    async def serve_http(self, host: str = "127.0.0.1",
                         port: int = 8077) -> "asyncio.base_events.Server":
        """Open a listening socket; returns the asyncio server object."""
        return await asyncio.start_server(self._client, host, port)

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await serve_connection(
            reader, writer, self.handle, self.live_snapshot, self._stop,
            max_body=self.config.max_body_bytes,
            live_interval_s=self.config.live_interval_s)
