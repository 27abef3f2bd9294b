"""Micro-batching: coalesce concurrent predictions into vectorized evals.

Prediction requests do not call the model directly; they enqueue a
pending item and await a future.  A dispatcher task drains the queue and
evaluates each ``(component, mode)`` group with **one** vectorized
``predict_mean``/``predict_std`` call over the group's bucketed Q values.
Under concurrency this turns N python-level model evaluations into one
NumPy call; an isolated request simply becomes a batch of one, flowing
through the *same* code path — which is what makes batched and single
predictions bitwise-identical (elementwise NumPy ops do not depend on
their neighbours in the array).

Back-pressure: the pending queue is bounded.  When it is full the
request is shed immediately with :class:`LoadShedError` (HTTP 503 +
``Retry-After``) instead of building an unbounded latency tail.

Each flush captures **one** model snapshot and stamps every result (and
cache entry) with that snapshot's version, so a hot-reload mid-flight
can never mix models within a batch or mislabel a response.

The flush is also where a prediction's numbers are born, so it is where
they are encoded: each result is an :class:`EncodedPrediction`, the
reply text with the request's ``cached`` flag and ``q`` left open.  The
cache stores that entry, and a hit hands it back as it is - no object
built, no encoder called.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.cache import PredictionCache, QBucketer
from repro.serve.schema import (EncodedPrediction, PredictRequest,
                                encode_predictions)
from repro.serve.store import ModelUnavailable, ServingModelStore, UnknownModel

__all__ = ["LoadShedError", "MicroBatcher"]

#: batch-size histogram buckets: exact small counts, then doublings
_BATCH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class LoadShedError(RuntimeError):
    """The pending queue is full; the request was rejected unprocessed."""

    def __init__(self, queue_limit: int) -> None:
        self.queue_limit = queue_limit
        super().__init__(f"prediction queue full ({queue_limit} pending)")


@dataclass
class _Item:
    req: PredictRequest
    q_bucket: float
    future: "asyncio.Future[EncodedPrediction]"


class MicroBatcher:
    """Bounded queue + dispatcher evaluating grouped predictions.

    ``start()`` must run inside the event loop that will issue
    ``predict`` calls; ``stop()`` drains nothing — pending futures are
    cancelled so shutdown is prompt and loud rather than slow and silent.
    """

    def __init__(self, store: ServingModelStore, cache: PredictionCache,
                 bucketer: QBucketer,
                 metrics: MetricsRegistry | None = None,
                 max_batch: int = 512, queue_limit: int = 2048) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.store = store
        self.cache = cache
        self.bucketer = bucketer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self._pending: list[_Item] = []
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush (healthz/live feed)."""
        return len(self._pending)

    # --------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch(), name="serve-batcher")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for item in self._pending:
            if not item.future.done():
                item.future.cancel()
        self._pending.clear()

    # ------------------------------------------------------------- entry
    async def predict(self, req: PredictRequest
                      ) -> tuple[EncodedPrediction, bool]:
        """Resolve one request; returns ``(prediction, cached)``.

        Raises :class:`UnknownModel`, :class:`ModelUnavailable` or
        :class:`LoadShedError`.
        """
        q_bucket, hit = self.lookup(req)
        if hit is not None:
            return hit, True
        return await self.enqueue(req, q_bucket), False

    def lookup(self, req: PredictRequest
               ) -> tuple[float, EncodedPrediction | None]:
        """``(q_bucket, hit)``: the request's bucket and its cached answer,
        or None on a miss, which the caller hands to :meth:`enqueue`."""
        q_bucket = self.bucketer.bucket(req.q)
        return q_bucket, self.cache.get((self.store.snapshot.generation,
                                         req.component, req.mode, q_bucket))

    def enqueue(self, req: PredictRequest, q_bucket: float
                ) -> "asyncio.Future[EncodedPrediction]":
        """Queue a cache miss for the next flush; the future resolves to
        its prediction or to the flush's error."""
        if len(self._pending) >= self.queue_limit:
            self._shed_total.inc()
            raise LoadShedError(self.queue_limit)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Item(req=req, q_bucket=q_bucket, future=future))
        self._queue_depth.set(len(self._pending))
        self._wakeup.set()
        return future

    # Instruments are fetched from the registry on first use and kept.
    @cached_property
    def _shed_total(self) -> Counter:
        return self.metrics.counter("serve_shed_total",
                                    "requests rejected by load shedding")

    @cached_property
    def _queue_depth(self) -> Gauge:
        return self.metrics.gauge("serve_queue_depth",
                                  "pending prediction requests")

    @cached_property
    def _batch_size(self) -> Histogram:
        return self.metrics.histogram("serve_batch_size",
                                      "coalesced requests per flush",
                                      bounds=_BATCH_BOUNDS)

    # -------------------------------------------------------- dispatcher
    async def _dispatch(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            # Yield once so concurrently-arriving requests join this flush:
            # the awaiting handlers get scheduled before the drain below.
            await asyncio.sleep(0)
            while self._pending:
                batch = self._pending[:self.max_batch]
                del self._pending[:len(batch)]
                self._flush(batch)

    def _flush(self, batch: list[_Item]) -> None:
        snapshot = self.store.snapshot
        self._batch_size.observe(len(batch))
        groups: dict[tuple[str, str | None], list[_Item]] = {}
        for item in batch:
            groups.setdefault((item.req.component, item.req.mode),
                              []).append(item)
        for (component, mode), items in groups.items():
            try:
                model = snapshot.lookup(component, mode)
            except (UnknownModel, ModelUnavailable) as exc:
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            q_buckets = [item.q_bucket for item in items]
            qs = np.asarray(q_buckets, dtype=float)
            means = np.atleast_1d(np.asarray(model.predict_mean(qs), dtype=float))
            stds = np.atleast_1d(np.asarray(model.predict_std(qs), dtype=float))
            if stds.shape != means.shape:
                stds = np.broadcast_to(stds, means.shape)
            encoded = encode_predictions(
                snapshot.version, component, mode, model.name, q_buckets,
                means.tolist(), stds.tolist())
            for item, pred in zip(items, encoded):
                key = (snapshot.generation, component, mode, item.q_bucket)
                self.cache.put(key, pred)
                if not item.future.done():
                    item.future.set_result(pred)
