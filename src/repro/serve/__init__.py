"""Performance-model serving: the paper's models as an online service.

The end goal of the paper's measurement infrastructure is that Mastermind
records become predictive cost models (Eq. 1/2) that guide component-
assembly optimization.  This package productionizes that step: an
asyncio HTTP/JSON service (stdlib-only) that answers

* single and batched cost predictions ("expected cost of GodunovFlux at
  Q=512 in strided mode") from a :class:`~repro.models.serialize.ModelRepository`,
* assembly recommendations via the existing composite-model optimizer,
* live metrics from the observability registry (Prometheus + JSON),

with micro-batched vectorized evaluation, an LRU+TTL prediction cache
keyed by ``(component, mode, Q-bucket)``, hot-reload of models on
repository changes (atomic snapshot swap, version stamp in every
response), bounded queues with load shedding, and a deterministic
seeded load generator that gates p50/p99 latency and throughput in the
``BENCH_serving.json`` trajectory.
"""

from repro.serve.batching import LoadShedError, MicroBatcher
from repro.serve.cache import PredictionCache, QBucketer
from repro.serve.schema import (AssemblyChoice, BatchPredictRequest,
                                EncodedPrediction, ModelInfo,
                                OptimizeRequest, OptimizeResponse,
                                PredictRequest, SlotSpec, ValidationError)
from repro.serve.server import ModelServer, Response, ServeConfig
from repro.serve.store import (ModelSnapshot, ModelUnavailable,
                               ServingModelStore, UnknownModel)

_LOADGEN_NAMES = ("LoadMix", "LoadStats", "run_load", "generate_requests")


def __getattr__(name: str):
    # Lazy so `python -m repro.serve.loadgen` does not re-execute a module
    # the package already imported (runpy's double-import RuntimeWarning).
    if name in _LOADGEN_NAMES:
        from repro.serve import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AssemblyChoice",
    "BatchPredictRequest",
    "EncodedPrediction",
    "LoadMix",
    "LoadShedError",
    "LoadStats",
    "MicroBatcher",
    "ModelInfo",
    "ModelServer",
    "ModelSnapshot",
    "ModelUnavailable",
    "OptimizeRequest",
    "OptimizeResponse",
    "PredictRequest",
    "PredictionCache",
    "QBucketer",
    "Response",
    "ServeConfig",
    "ServingModelStore",
    "SlotSpec",
    "UnknownModel",
    "ValidationError",
    "run_load",
]
