"""LRU + TTL prediction cache.

Entries are keyed by ``(generation, component, mode, q_bucket)``: the
model-snapshot generation is part of the key, so a hot-reload makes every
cached prediction unreachable instead of requiring an explicit flush —
stale entries age out of the LRU tail on their own, and a cached value can
never be served with a version stamp it was not computed under.

The serving stack stores one :class:`~repro.serve.schema.EncodedPrediction`
per key: the reply text the flush encoded, version stamp included, which
a hit returns as it is for the handler to splice the request's ``q`` into.
The cache itself is generic over its values and never looks inside them.

The clock is injected (:class:`repro.util.timebase.Clock`) so TTL expiry
is testable without sleeping; the default is the real wall clock.  Hit,
miss, eviction and expiry counts feed the serving
:class:`~repro.obs.metrics.MetricsRegistry` so the cache's behaviour is
visible on the ``/metrics`` endpoint it accelerates.  Each instrument is
fetched from the registry on its first event and kept: a lookup per hit
would cost more than the hit itself.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import cached_property
from typing import Generic, Hashable, TypeVar

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.util.timebase import Clock, WallClock

__all__ = ["PredictionCache", "QBucketer"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class QBucketer:
    """Quantize workloads onto a fixed log grid.

    Serving evaluates models at a bucket *representative* rather than the
    raw Q: requests within ~1% of each other share a cache entry, which is
    what makes the cache effective under real traffic where Q values
    cluster but rarely repeat exactly.  ``per_decade=None`` disables
    quantization (exact-Q keys, representative == request).

    The representative is a pure function of the bucket index, so the
    single-request path and the batched path quantize identically —
    a precondition for their bitwise-equal results.
    """

    __slots__ = ("per_decade",)

    def __init__(self, per_decade: int | None = 64) -> None:
        if per_decade is not None and per_decade < 1:
            raise ValueError(f"per_decade must be >= 1 or None, got {per_decade}")
        self.per_decade = per_decade

    def bucket(self, q: float) -> float:
        """Bucket representative for workload ``q`` (requires q > 0)."""
        if q <= 0:
            raise ValueError(f"workload must be > 0, got {q}")
        if self.per_decade is None:
            return float(q)
        idx = round(math.log10(q) * self.per_decade)
        return float(10.0 ** (idx / self.per_decade))


class PredictionCache(Generic[K, V]):
    """Bounded LRU cache with optional per-entry TTL.

    ``get`` returns ``None`` on miss (values are never ``None``); ``put``
    inserts at the MRU end and evicts from the LRU end past ``capacity``.
    An entry older than ``ttl_us`` counts as an expiry (reported
    separately from capacity evictions) and is removed on access.
    """

    def __init__(self, capacity: int = 4096, ttl_us: float | None = None,
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_us is not None and ttl_us <= 0:
            raise ValueError(f"ttl_us must be > 0 or None, got {ttl_us}")
        self.capacity = capacity
        self.ttl_us = ttl_us
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[K, tuple[float, V]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expiries = 0
        #: event -> its counter, bound on the event's first occurrence
        self._counters: dict[str, Counter] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[K]:
        """Keys in LRU-to-MRU order (eviction order), for introspection."""
        return list(self._entries)

    @cached_property
    def _entries_gauge(self) -> Gauge:
        return self.metrics.gauge("serve_cache_entries", "live cache entries")

    def _count(self, event: str) -> None:
        counter = self._counters.get(event)
        if counter is None:
            counter = self._counters[event] = self.metrics.counter(
                f"serve_cache_{event}_total", "prediction cache events")
        counter.inc()
        self._entries_gauge.set(len(self._entries))

    def get(self, key: K) -> V | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("misses")
            return None
        inserted_at, value = entry
        if (self.ttl_us is not None
                and self.clock.now() - inserted_at >= self.ttl_us):
            del self._entries[key]
            self.expiries += 1
            self.misses += 1
            self._count("expiries")
            self._count("misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._count("hits")
        return value

    def put(self, key: K, value: V) -> None:
        if key in self._entries:
            # Refresh both recency and the TTL epoch.
            del self._entries[key]
        self._entries[key] = (self.clock.now(), value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("evictions")
        self._entries_gauge.set(len(self._entries))

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
