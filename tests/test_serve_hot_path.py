"""Count gates on the serving hot path: what a cache hit costs.

A hot-cache block of the default load mix must do only each request's own
work - parse, cache lookup, splicing the request's ``q`` into the reply the
flush encoded.  These gates count the per-request overheads that depend on
neither the request nor the models: instrument lookups in the metrics
registry, asyncio tasks, prediction objects and JSON encoder calls.  The
proxied-invocation gate holds the Mastermind to no registry lookup at
all: its records are what the metrics view reads.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cca import Framework, Port
from repro.models.fits import fit_linear, fit_power_law
from repro.models.performance import PerformanceModel
from repro.models.serialize import ModelRepository
from repro.obs.export import rank_metrics
from repro.obs.record import rank_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import ObsConfig, RankObs
from repro.perf import Mastermind, make_proxy_port, perf_params
from repro.serve import ModelServer, ServeConfig
from repro.serve.loadgen import LoadMix, generate_requests
from repro.serve.schema import EncodedPrediction
from repro.tau.component import TauMeasurementComponent

Q = np.array([1e3, 1e4, 1e5])
CLIENTS = 8
BLOCK = 400


@pytest.fixture
def models_dir(tmp_path):
    repo = ModelRepository(str(tmp_path))
    for mode, slope in (("sequential", 0.3), ("strided", 0.55)):
        repo.store("flux", PerformanceModel(
            f"Godunov[{mode}]", fit_linear(Q, slope * Q + 25.0)))
    repo.store("states", PerformanceModel(
        "States[x]", fit_power_law(Q, np.exp(1.19 * np.log(Q) - 3.68))))
    return str(tmp_path)


def make_streams(server: ModelServer) -> list[list[tuple[str, str, bytes]]]:
    catalog = server.store.snapshot.catalog()
    components = sorted({m.component for m in catalog})
    modes: dict = {}
    for m in catalog:
        modes.setdefault(m.component, []).append(m.mode)
    return [generate_requests(0, w, BLOCK // CLIENTS, components, modes,
                              LoadMix())
            for w in range(CLIENTS)]


def predictions_issued(streams) -> int:
    n = 0
    for stream in streams:
        for _method, path, body in stream:
            if path == "/v1/predict":
                n += 1
            elif path == "/v1/predict/batch":
                n += len(json.loads(body)["requests"])
    return n


async def run_block(server, streams) -> list:
    async def client(stream):
        out = []
        for method, path, body in stream:
            out.append(await server.handle(method, path, body))
        return out
    return await asyncio.gather(*(client(s) for s in streams))


class Counts:
    """Registry lookups, task creations, encoded predictions built and JSON
    encoder calls while armed."""

    def __init__(self, monkeypatch):
        self.lookups = 0
        self.tasks = 0
        self.predictions = 0
        self.encodes = 0
        real_get = MetricsRegistry._get
        real_new = EncodedPrediction.__new__
        real_encode = json.JSONEncoder.encode

        def counting_get(registry, *args, **kwargs):
            self.lookups += 1
            return real_get(registry, *args, **kwargs)

        def counting_new(cls, *args, **kwargs):
            self.predictions += 1
            return real_new(cls, *args, **kwargs)

        def counting_encode(encoder, obj):
            self.encodes += 1
            return real_encode(encoder, obj)

        monkeypatch.setattr(MetricsRegistry, "_get", counting_get)
        monkeypatch.setattr(EncodedPrediction, "__new__",
                            staticmethod(counting_new))
        # json.dumps, with or without options, ends in JSONEncoder.encode
        monkeypatch.setattr(json.JSONEncoder, "encode", counting_encode)

    def task_factory(self, loop, coro, **kwargs):
        self.tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)


def drive(models_dir, monkeypatch):
    """Cold block, then a hot block under the counters."""
    server = ModelServer(models_dir, ServeConfig())

    async def main():
        async with server:
            streams = make_streams(server)
            await run_block(server, streams)
            cold = (server.cache.hits, server.cache.misses)
            counts = Counts(monkeypatch)
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counts.task_factory)
            try:
                replies = await run_block(server, streams)
            finally:
                loop.set_task_factory(None)
            return streams, cold, counts, replies

    return server, asyncio.run(main())


def test_hot_block_makes_no_registry_lookup(models_dir, monkeypatch):
    _, (_, _, counts, replies) = drive(models_dir, monkeypatch)
    assert all(r.status == 200 for rs in replies for r in rs)
    assert counts.lookups == 0


def test_hot_block_creates_only_the_callers_tasks(models_dir, monkeypatch):
    _, (_, _, counts, _) = drive(models_dir, monkeypatch)
    assert counts.tasks == CLIENTS


def test_hot_block_builds_and_encodes_nothing(models_dir, monkeypatch):
    """A hit splices the stored reply text: no prediction object is built
    and no JSON encoder runs, and the catalog is encoded once per snapshot."""
    _, (streams, _, counts, replies) = drive(models_dir, monkeypatch)
    assert all(r.status == 200 for rs in replies for r in rs)
    paths = {path for stream in streams for _m, path, _b in stream}
    assert {"/v1/predict", "/v1/predict/batch", "/v1/models"} <= paths
    assert (counts.predictions, counts.encodes) == (0, 0)


def test_each_prediction_is_looked_up_once(models_dir, monkeypatch):
    server, (streams, cold, _, _) = drive(models_dir, monkeypatch)
    issued = predictions_issued(streams)
    assert issued > 0
    # cold block: every prediction is one hit or one miss, never both
    assert cold[0] > 0 and cold[1] > 0
    assert sum(cold) == issued
    hot_hits = server.cache.hits - cold[0]
    hot_misses = server.cache.misses - cold[1]
    assert (hot_hits, hot_misses) == (issued, 0)


def test_batch_mixing_hits_and_misses_equals_singles(models_dir):
    qs = [517.0, 1.3e3, 7.7e3, 4.2e4, 2.9e5]
    queries = [{"component": c, "mode": m, "q": q} for q in qs
               for c, m in (("Godunov", "strided"), ("States", "x"))]
    warm = queries[::3]

    async def main():
        async with ModelServer(models_dir, ServeConfig()) as server:
            singles = []
            for obj in queries:
                resp = await server.handle("POST", "/v1/predict",
                                           json.dumps(obj).encode())
                singles.append(json.loads(resp.body)["prediction"])
        async with ModelServer(models_dir, ServeConfig()) as server:
            for obj in warm:
                await server.handle("POST", "/v1/predict",
                                    json.dumps(obj).encode())
            resp = await server.handle(
                "POST", "/v1/predict/batch",
                json.dumps({"requests": queries}).encode())
            assert resp.status == 200, resp.body
            return singles, json.loads(resp.body)["predictions"]

    singles, batched = asyncio.run(main())
    assert [p["cached"] for p in batched] == [q in warm for q in queries]
    for single, batch in zip(singles, batched):
        single.pop("cached")
        batch.pop("cached")
        assert single == batch  # bitwise: same float64, not approx


class WorkPort(Port):
    @perf_params(lambda args, kwargs: {"Q": args[0]})
    def work(self, q):
        raise NotImplementedError


class WorkImpl(WorkPort):
    def work(self, q):
        return q


def test_proxied_invocation_makes_no_registry_lookup(monkeypatch):
    # The Mastermind's records are the one store of invocations: a
    # proxied call writes no metric, and the metrics view reads them.
    fw = Framework(obs=RankObs(0, ObsConfig()))
    fw.create("tau", TauMeasurementComponent)
    mm = fw.create("mm", Mastermind)
    fw.connect("mm", "measurement", "tau", "measurement")
    impl = WorkImpl()
    proxy = make_proxy_port(WorkPort, "w", lambda: impl, lambda: mm)
    counts = Counts(monkeypatch)
    for q in range(1, 6):
        proxy.work(q)
    assert counts.lookups == 0
    assert fw.obs.metrics.series() == []
    view = rank_metrics(rank_record(fw.obs))
    assert view.counter("invocations_total", routine="w::work()").value == 5
    assert view.histogram("invocation_wall_us",
                          routine="w::work()").count == 5
