"""Micro-batcher: coalescing, cache integration, load shedding."""

import asyncio
import json

import numpy as np
import pytest

from repro.models.fits import fit_linear, fit_power_law
from repro.models.performance import PerformanceModel
from repro.models.serialize import ModelRepository
from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import LoadShedError, MicroBatcher
from repro.serve.cache import PredictionCache, QBucketer
from repro.serve.schema import PredictRequest
from repro.serve.store import (ModelUnavailable, ServingModelStore,
                               UnknownModel)

Q = np.array([1e3, 1e4, 1e5])


def make_store(tmp_path, *, power: bool = False) -> ServingModelStore:
    repo = ModelRepository(str(tmp_path))
    if power:
        repo.store("flux", PerformanceModel(
            "F", fit_power_law(Q, np.exp(1.19 * np.log(Q) - 3.68))))
    else:
        repo.store("flux", PerformanceModel("F", fit_linear(Q, 2.0 * Q)))
    return ServingModelStore(str(tmp_path))


def make_batcher(store, **kw) -> MicroBatcher:
    return MicroBatcher(store, PredictionCache(capacity=64),
                        QBucketer(per_decade=None), **kw)


def decoded(result, q):
    """A ``predict`` result as the prediction object its reply carries."""
    pred, cached = result
    return json.loads(pred.render(q, cached))


async def _with_batcher(batcher, coro):
    batcher.start()
    try:
        return await coro
    finally:
        await batcher.stop()


def test_concurrent_requests_coalesce_into_one_flush(tmp_path):
    store = make_store(tmp_path)
    metrics = MetricsRegistry()
    batcher = make_batcher(store, metrics=metrics)

    async def main():
        reqs = [PredictRequest(component="F", q=float(q))
                for q in (1e3, 2e3, 4e3, 8e3, 1.6e4, 3.2e4)]
        return await asyncio.gather(*(batcher.predict(r) for r in reqs))

    results = asyncio.run(_with_batcher(batcher, main()))
    assert len(results) == 6
    for result, expect_q in zip(results, (1e3, 2e3, 4e3, 8e3, 1.6e4, 3.2e4)):
        pred = decoded(result, expect_q)
        assert pred["q"] == expect_q
        assert pred["mean_us"] == pytest.approx(2.0 * expect_q, rel=1e-9)
        assert json.loads(result[0].version) == store.snapshot.version
    hist = metrics.histogram("serve_batch_size")
    assert hist.count >= 1
    # All six arrived before the dispatcher ran: one vectorized flush.
    assert hist.count < 6
    assert hist.total == 6


def test_batched_bitwise_equals_single_at_batcher_level(tmp_path):
    """Vectorized group evaluation vs batch-of-one: identical float64."""
    store = make_store(tmp_path, power=True)
    qs = [517.0, 1.3e3, 7.7e3, 4.2e4, 2.9e5]

    def run_one_by_one():
        batcher = make_batcher(store)

        async def main():
            out = []
            for q in qs:  # awaited sequentially: each is a batch of one
                result = await batcher.predict(PredictRequest("F", q))
                out.append(decoded(result, q)["mean_us"])
            return out
        return asyncio.run(_with_batcher(batcher, main()))

    def run_together():
        batcher = make_batcher(store)

        async def main():
            results = await asyncio.gather(
                *(batcher.predict(PredictRequest("F", q)) for q in qs))
            return [decoded(r, q)["mean_us"] for r, q in zip(results, qs)]
        return asyncio.run(_with_batcher(batcher, main()))

    singles, batched = run_one_by_one(), run_together()
    assert singles == batched  # bitwise float equality, not approx


def test_cache_hit_skips_queue_and_marks_cached(tmp_path):
    store = make_store(tmp_path)
    batcher = make_batcher(store)

    async def main():
        first = await batcher.predict(PredictRequest("F", 1e3))
        again = await batcher.predict(PredictRequest("F", 1e3))
        return first, again

    first, again = asyncio.run(_with_batcher(batcher, main()))
    assert first[1] is False and again[1] is True
    # the hit hands back the entry the flush encoded, not a rebuilt one
    assert again[0] is first[0]
    assert decoded(again, 1e3)["mean_us"] == decoded(first, 1e3)["mean_us"]
    assert json.loads(again[0].version) == store.snapshot.version
    assert batcher.cache.hits == 1


def test_queue_full_sheds_load(tmp_path):
    store = make_store(tmp_path)
    metrics = MetricsRegistry()
    batcher = make_batcher(store, metrics=metrics, queue_limit=4)

    async def main():
        # Fire 12 concurrent requests at a queue of 4 without letting the
        # dispatcher run (no await between enqueues): 8 must shed.
        reqs = [PredictRequest("F", 1e3 * (i + 1)) for i in range(12)]
        return await asyncio.gather(
            *(batcher.predict(r) for r in reqs), return_exceptions=True)

    results = asyncio.run(_with_batcher(batcher, main()))
    shed = [r for r in results if isinstance(r, LoadShedError)]
    served = [r for r in results if not isinstance(r, Exception)]
    assert len(shed) == 8, f"expected 8 shed, got {len(shed)}"
    assert len(served) == 4
    assert metrics.counter("serve_shed_total").value == 8


def test_unknown_component_raises_through_future(tmp_path):
    store = make_store(tmp_path)
    batcher = make_batcher(store)

    async def main():
        with pytest.raises(UnknownModel):
            await batcher.predict(PredictRequest("NoSuch", 1e3))
        with pytest.raises(UnknownModel):
            await batcher.predict(PredictRequest("F", 1e3, mode="strided"))

    asyncio.run(_with_batcher(batcher, main()))


def test_empty_store_raises_model_unavailable(tmp_path):
    store = ServingModelStore(str(tmp_path / "empty"))
    batcher = make_batcher(store)

    async def main():
        with pytest.raises(ModelUnavailable):
            await batcher.predict(PredictRequest("F", 1e3))

    asyncio.run(_with_batcher(batcher, main()))


def test_config_validation(tmp_path):
    store = make_store(tmp_path)
    with pytest.raises(ValueError, match="max_batch"):
        make_batcher(store, max_batch=0)
    with pytest.raises(ValueError, match="queue_limit"):
        make_batcher(store, queue_limit=0)
