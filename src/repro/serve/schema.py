"""Typed request/response schemas for the model-serving API.

Every wire payload has a frozen dataclass here with a ``from_obj``
constructor that validates plain-JSON input (types, ranges, required
keys) and raises :class:`ValidationError` with a path-qualified message
— the HTTP layer maps that to a 400 whose body names the offending
field.  Catalog and optimize responses carry ``to_obj``.

Predictions are the exception, because they are the hot path: each is
encoded once, where the micro-batcher computes it, into an
:class:`EncodedPrediction` - the text of its sorted-key JSON object with
the ``cached`` flag and the request's ``q`` left open.  Every reply that
carries it, a cache hit, a miss or a batch, splices those two slots and
joins; the bytes equal ``json.dumps(obj, sort_keys=True)``'s.

The validators are deliberately hand-rolled: the service is stdlib-only
(no jsonschema dependency), and the schemas are small enough that
explicit checks read better than a meta-language.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = [
    "ValidationError", "PredictRequest", "BatchPredictRequest",
    "EncodedPrediction", "encode_predictions", "predict_body",
    "batch_predict_body", "SlotSpec", "OptimizeRequest", "AssemblyChoice",
    "OptimizeResponse", "ModelInfo",
]

#: refuse unbounded batch bodies before they reach the batching queue
MAX_BATCH_REQUESTS = 4096


class ValidationError(ValueError):
    """A request payload failed schema validation (HTTP 400)."""


def _require_mapping(obj: Any, where: str) -> Mapping[str, Any]:
    # Parsed JSON is a plain dict; test that before the ABC check.
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise ValidationError(f"{where}: expected a JSON object, "
                              f"got {type(obj).__name__}")
    return obj


def _get_str(obj: Mapping[str, Any], key: str, where: str) -> str:
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ValidationError(f"{where}: {key!r} must be a non-empty string, "
                              f"got {v!r}")
    return v


def _get_opt_str(obj: Mapping[str, Any], key: str, where: str) -> str | None:
    v = obj.get(key)
    if v is None:
        return None
    if not isinstance(v, str) or not v:
        raise ValidationError(f"{where}: {key!r} must be a non-empty string "
                              f"or null, got {v!r}")
    return v


def _get_number(obj: Mapping[str, Any], key: str, where: str, *,
                default: float | None = None, positive: bool = False,
                minimum: float | None = None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ValidationError(f"{where}: missing required key {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where}: {key!r} must be a number, got {v!r}")
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValidationError(f"{where}: {key!r} must be finite, got {v!r}")
    if positive and v <= 0:
        raise ValidationError(f"{where}: {key!r} must be > 0, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValidationError(f"{where}: {key!r} must be >= {minimum}, "
                              f"got {v!r}")
    return v


# --------------------------------------------------------------- predict
@dataclass(frozen=True)
class PredictRequest:
    """One cost query: expected cost of ``component`` at workload ``q``.

    ``mode`` selects a per-access-mode model (e.g. ``"strided"``); omit it
    to query a pooled (mode-averaged) model.
    """

    component: str
    q: float
    mode: str | None = None

    @classmethod
    def from_obj(cls, obj: Any, where: str = "predict request") -> "PredictRequest":
        m = _require_mapping(obj, where)
        return cls(
            component=_get_str(m, "component", where),
            q=_get_number(m, "q", where, positive=True),
            mode=_get_opt_str(m, "mode", where),
        )


@dataclass(frozen=True)
class BatchPredictRequest:
    requests: tuple[PredictRequest, ...]

    @classmethod
    def from_obj(cls, obj: Any) -> "BatchPredictRequest":
        where = "batch predict request"
        m = _require_mapping(obj, where)
        raw = m.get("requests")
        if type(raw) is not list and (not isinstance(raw, Sequence)
                                      or isinstance(raw, (str, bytes))):
            raise ValidationError(f"{where}: 'requests' must be a JSON array")
        if not raw:
            raise ValidationError(f"{where}: 'requests' must be non-empty")
        if len(raw) > MAX_BATCH_REQUESTS:
            raise ValidationError(
                f"{where}: at most {MAX_BATCH_REQUESTS} requests per batch, "
                f"got {len(raw)}")
        return cls(tuple(
            PredictRequest.from_obj(r, f"{where}[{i}]")
            for i, r in enumerate(raw)))


# ------------------------------------------------------ prediction replies
#: a prediction object opens with its first sorted key, the cache flag
_CACHED_OPEN = ('{"cached": false', '{"cached": true')


class EncodedPrediction(NamedTuple):
    """One prediction's reply text, encoded once when its flush computed it.

    It is the prediction's sorted-key JSON object with two open slots, the
    ``cached`` flag and the request's ``q``: :meth:`render` writes
    ``{"cached": <flag>`` + ``head`` + ``<q>`` + ``tail``.  :mod:`json`
    wrote every field of ``head``, ``tail`` and ``version``, so escapes and
    non-finite numbers are exactly ``json.dumps``'s, and the text is ASCII.
    ``q`` is a finite float (:class:`PredictRequest` validates it), which
    ``json`` writes as its ``repr``.
    """

    #: the snapshot's ``model_version`` as a JSON string
    version: str
    #: ``, "component": …, "mean_us": …, "mode": …, "model": …, "q": ``
    head: str
    #: ``, "q_bucket": …, "std_us": …}``
    tail: str

    def render(self, q: float, cached: bool) -> str:
        """The prediction object answering a request for ``q``."""
        return f"{_CACHED_OPEN[cached]}{self.head}{q!r}{self.tail}"


def _json_floats(values: list[float]) -> list[str]:
    # One encoder call for the lot; no number json writes contains ", ".
    return json.dumps(values)[1:-1].split(", ")


def encode_predictions(version: str, component: str, mode: str | None,
                       model: str, q_buckets: list[float],
                       means: list[float], stds: list[float]
                       ) -> list[EncodedPrediction]:
    """Encode one evaluated group: ``model`` answered ``(component, mode)``
    at each ``q_buckets[i]`` with ``means[i]`` and ``stds[i]``."""
    version_json = json.dumps(version)
    before_mean = f', "component": {json.dumps(component)}, "mean_us": '
    after_mean = (f', "mode": {json.dumps(mode)}, '
                  f'"model": {json.dumps(model)}, "q": ')
    return [EncodedPrediction(version_json, f"{before_mean}{mean}{after_mean}",
                              f', "q_bucket": {q_bucket}, "std_us": {std}}}')
            for q_bucket, mean, std in zip(_json_floats(q_buckets),
                                           _json_floats(means),
                                           _json_floats(stds))]


def predict_body(entry: EncodedPrediction, q: float, cached: bool) -> bytes:
    """``POST /v1/predict``'s reply body."""
    return (f'{{"model_version": {entry.version}, '
            f'"prediction": {entry.render(q, cached)}}}\n').encode()


def batch_predict_body(version: str, predictions: list[str]) -> bytes:
    """``POST /v1/predict/batch``'s reply body: ``version`` is the shared
    :attr:`EncodedPrediction.version`, ``predictions`` the rendered objects."""
    return (f'{{"model_version": {version}, '
            f'"predictions": [{", ".join(predictions)}]}}\n').encode()


# -------------------------------------------------------------- optimize
@dataclass(frozen=True)
class SlotSpec:
    """One free slot of the composite: the workload its node observed.

    Mirrors :class:`repro.models.composite.Workload` — ``q_values[i]`` was
    presented ``counts[i]`` times — plus the node's measured communication
    time, carried separately per the paper's dual-graph vertex weights.
    """

    slot: str
    q_values: tuple[float, ...]
    counts: tuple[int, ...]
    comm_us: float = 0.0

    @classmethod
    def from_obj(cls, obj: Any, where: str) -> "SlotSpec":
        m = _require_mapping(obj, where)
        slot = _get_str(m, "slot", where)
        raw_q = m.get("q_values")
        raw_c = m.get("counts")
        if not isinstance(raw_q, Sequence) or isinstance(raw_q, (str, bytes)) or not raw_q:
            raise ValidationError(f"{where}: 'q_values' must be a non-empty array")
        q_values = tuple(
            _get_number({"q": v}, "q", f"{where}.q_values[{i}]", positive=True)
            for i, v in enumerate(raw_q))
        if raw_c is None:
            counts = tuple(1 for _ in q_values)
        else:
            if (not isinstance(raw_c, Sequence) or isinstance(raw_c, (str, bytes))
                    or len(raw_c) != len(q_values)):
                raise ValidationError(
                    f"{where}: 'counts' must be an array matching 'q_values' "
                    f"({len(q_values)} entries)")
            counts = tuple(
                int(_get_number({"c": v}, "c", f"{where}.counts[{i}]", minimum=0))
                for i, v in enumerate(raw_c))
        return cls(slot=slot, q_values=q_values, counts=counts,
                   comm_us=_get_number(m, "comm_us", where, default=0.0,
                                       minimum=0.0))


@dataclass(frozen=True)
class OptimizeRequest:
    """Assembly recommendation over the repository's candidate models."""

    slots: tuple[SlotSpec, ...]
    qos_weight: float = 0.0
    min_quality: float | None = None
    top: int = 5

    @classmethod
    def from_obj(cls, obj: Any) -> "OptimizeRequest":
        where = "optimize request"
        m = _require_mapping(obj, where)
        raw = m.get("slots")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
            raise ValidationError(f"{where}: 'slots' must be a non-empty array")
        slots = tuple(SlotSpec.from_obj(s, f"{where}.slots[{i}]")
                      for i, s in enumerate(raw))
        names = [s.slot for s in slots]
        if len(set(names)) != len(names):
            raise ValidationError(f"{where}: duplicate slot names in {names}")
        min_q = m.get("min_quality")
        return cls(
            slots=slots,
            qos_weight=_get_number(m, "qos_weight", where, default=0.0,
                                   minimum=0.0),
            min_quality=None if min_q is None else
            _get_number(m, "min_quality", where, minimum=0.0),
            top=int(_get_number(m, "top", where, default=5.0, positive=True)),
        )


@dataclass(frozen=True)
class AssemblyChoice:
    """One ranked assembly: slot -> implementation name plus its score."""

    binding: Mapping[str, str]
    cost_us: float
    quality: float
    score: float

    def to_obj(self) -> dict[str, Any]:
        return {"binding": dict(self.binding), "cost_us": self.cost_us,
                "quality": self.quality, "score": self.score}


@dataclass(frozen=True)
class OptimizeResponse:
    best: AssemblyChoice
    ranked: tuple[AssemblyChoice, ...]
    search_space: int
    model_version: str

    def to_obj(self) -> dict[str, Any]:
        return {"best": self.best.to_obj(),
                "ranked": [r.to_obj() for r in self.ranked],
                "search_space": self.search_space,
                "model_version": self.model_version}


# ---------------------------------------------------------------- models
@dataclass(frozen=True)
class ModelInfo:
    """Catalog entry returned by ``GET /v1/models``."""

    component: str
    mode: str | None
    functionality: str
    family: str
    r2: float
    quality: float
    context: Mapping[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict[str, Any]:
        return {"component": self.component, "mode": self.mode,
                "functionality": self.functionality, "family": self.family,
                "r2": self.r2, "quality": self.quality,
                "context": dict(self.context)}
