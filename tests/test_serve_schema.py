"""Request/response schemas: every 400 path, round-trips, and the
prediction encoder against ``json.dumps`` byte for byte."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.schema import (MAX_BATCH_REQUESTS, BatchPredictRequest,
                                EncodedPrediction, OptimizeRequest,
                                PredictRequest, SlotSpec, ValidationError,
                                batch_predict_body, encode_predictions,
                                predict_body)


class TestPredictRequest:
    def test_minimal(self):
        req = PredictRequest.from_obj({"component": "Flux", "q": 1e4})
        assert req == PredictRequest(component="Flux", q=1e4, mode=None)

    def test_with_mode(self):
        req = PredictRequest.from_obj(
            {"component": "Flux", "q": 2, "mode": "strided"})
        assert req.mode == "strided"
        assert req.q == 2.0

    def test_explicit_null_mode_is_none(self):
        assert PredictRequest.from_obj(
            {"component": "F", "q": 1, "mode": None}).mode is None

    @pytest.mark.parametrize("obj, fragment", [
        (None, "expected a JSON object"),
        ([1, 2], "expected a JSON object"),
        ({}, "missing required key 'component'"),
        ({"component": ""}, "non-empty string"),
        ({"component": 7, "q": 1}, "non-empty string"),
        ({"component": "F"}, "missing required key 'q'"),
        ({"component": "F", "q": "big"}, "must be a number"),
        ({"component": "F", "q": True}, "must be a number"),
        ({"component": "F", "q": 0}, "must be > 0"),
        ({"component": "F", "q": float("nan")}, "must be finite"),
        ({"component": "F", "q": float("inf")}, "must be finite"),
        ({"component": "F", "q": 1, "mode": ""}, "non-empty string"),
    ])
    def test_rejects(self, obj, fragment):
        with pytest.raises(ValidationError, match="predict request"):
            try:
                PredictRequest.from_obj(obj)
            except ValidationError as exc:
                assert fragment in str(exc)
                raise


class TestBatchPredictRequest:
    def test_roundtrip(self):
        batch = BatchPredictRequest.from_obj({"requests": [
            {"component": "A", "q": 1}, {"component": "B", "q": 2}]})
        assert [r.component for r in batch.requests] == ["A", "B"]

    def test_error_message_indexes_the_bad_entry(self):
        with pytest.raises(ValidationError, match=r"\[1\]"):
            BatchPredictRequest.from_obj({"requests": [
                {"component": "A", "q": 1}, {"component": "B"}]})

    @pytest.mark.parametrize("obj", [
        {}, {"requests": None}, {"requests": "nope"}, {"requests": []},
    ])
    def test_rejects_shapes(self, obj):
        with pytest.raises(ValidationError):
            BatchPredictRequest.from_obj(obj)

    def test_caps_batch_size(self):
        too_many = [{"component": "A", "q": 1}] * (MAX_BATCH_REQUESTS + 1)
        with pytest.raises(ValidationError, match="at most"):
            BatchPredictRequest.from_obj({"requests": too_many})


class TestSlotSpec:
    def test_counts_default_to_ones(self):
        spec = SlotSpec.from_obj({"slot": "flux", "q_values": [1.0, 2.0]},
                                 "slots[0]")
        assert spec.counts == (1, 1)
        assert spec.comm_us == 0.0

    def test_full(self):
        spec = SlotSpec.from_obj(
            {"slot": "flux", "q_values": [1.0, 2.0], "counts": [3, 4],
             "comm_us": 12.5}, "slots[0]")
        assert spec == SlotSpec(slot="flux", q_values=(1.0, 2.0),
                                counts=(3, 4), comm_us=12.5)

    @pytest.mark.parametrize("obj, fragment", [
        ({"slot": "s"}, "q_values"),
        ({"slot": "s", "q_values": []}, "non-empty"),
        ({"slot": "s", "q_values": [0.0]}, "must be > 0"),
        ({"slot": "s", "q_values": [1.0], "counts": [1, 2]}, "matching"),
        ({"slot": "s", "q_values": [1.0], "counts": [-1]}, ">= 0"),
        ({"slot": "s", "q_values": [1.0], "comm_us": -5}, ">= 0"),
    ])
    def test_rejects(self, obj, fragment):
        with pytest.raises(ValidationError) as exc:
            SlotSpec.from_obj(obj, "slots[0]")
        assert fragment in str(exc.value)


class TestOptimizeRequest:
    def test_defaults(self):
        req = OptimizeRequest.from_obj({"slots": [
            {"slot": "flux", "q_values": [1.0]}]})
        assert req.qos_weight == 0.0
        assert req.min_quality is None
        assert req.top == 5

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValidationError, match="duplicate slot"):
            OptimizeRequest.from_obj({"slots": [
                {"slot": "flux", "q_values": [1.0]},
                {"slot": "flux", "q_values": [2.0]}]})

    @pytest.mark.parametrize("extra, fragment", [
        ({"qos_weight": -1}, ">= 0"),
        ({"min_quality": -0.5}, ">= 0"),
        ({"top": 0}, "> 0"),
    ])
    def test_rejects_knobs(self, extra, fragment):
        obj = {"slots": [{"slot": "flux", "q_values": [1.0]}], **extra}
        with pytest.raises(ValidationError) as exc:
            OptimizeRequest.from_obj(obj)
        assert fragment in str(exc.value)


def oracle_body(obj) -> bytes:
    """The reply bytes a handler owes: ``json.dumps`` with sorted keys."""
    return json.dumps(obj, sort_keys=True).encode() + b"\n"


def prediction_obj(pred, q, cached) -> dict:
    component, mode, model, q_bucket, mean_us, std_us = pred
    return {"component": component, "mode": mode, "q": q,
            "q_bucket": q_bucket, "mean_us": mean_us, "std_us": std_us,
            "model": model, "cached": cached}


def encode_one(version, pred) -> EncodedPrediction:
    component, mode, model, q_bucket, mean_us, std_us = pred
    [entry] = encode_predictions(version, component, mode, model,
                                 [q_bucket], [mean_us], [std_us])
    return entry


def test_encoded_prediction_is_json_plain():
    entry = encode_one("v1", ("F", None, "F", 1.5, 10.0, 1.0))
    obj = json.loads(predict_body(entry, 1.5, False))
    assert obj["model_version"] == "v1"
    pred = obj["prediction"]
    assert pred["component"] == "F"
    assert pred["mode"] is None
    assert pred["cached"] is False
    assert set(pred) == {"component", "mode", "q", "q_bucket", "mean_us",
                         "std_us", "model", "cached"}


# Strings as they may arrive from a model repository: quotes, backslashes,
# control characters and non-ASCII all need json's escapes.
names = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(),
                min_size=1, max_size=12)
# Evaluated numbers: everything a fit can return, non-finite included.
TINY, HUGE = 5e-324, sys.float_info.max
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, TINY, sys.float_info.min, HUGE, 1e16, 1e-7,
                     float("nan"), float("inf"), float("-inf")]))
# Request workloads: validated finite and positive, integral or extreme.
workloads = st.one_of(
    st.floats(min_value=TINY, max_value=HUGE),
    st.integers(min_value=1, max_value=10**17).map(float),
    st.sampled_from([1.0, 1e16, 1e22, 1e-7, TINY, HUGE]))
predictions = st.tuples(names, st.none() | names, names,
                        st.floats(min_value=1e-300, max_value=1e300),
                        numbers, numbers)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(version=names, pred=predictions, q=workloads, cached=st.booleans())
def test_predict_body_matches_json_dumps(version, pred, q, cached):
    entry = encode_one(version, pred)
    assert predict_body(entry, q, cached) == oracle_body(
        {"model_version": version,
         "prediction": prediction_obj(pred, q, cached)})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(version=names, component=names, mode=st.none() | names, model=names,
       rows=st.lists(st.tuples(st.floats(min_value=1e-300, max_value=1e300),
                               numbers, numbers, workloads, st.booleans()),
                     min_size=1, max_size=8))
def test_batch_body_matches_json_dumps(version, component, mode, model, rows):
    q_buckets, means, stds, qs, flags = (list(c) for c in zip(*rows))
    entries = encode_predictions(version, component, mode, model,
                                 q_buckets, means, stds)
    assert len(entries) == len(rows)
    body = batch_predict_body(
        entries[0].version,
        [e.render(q, cached) for e, q, cached in zip(entries, qs, flags)])
    assert body == oracle_body({
        "model_version": version,
        "predictions": [
            prediction_obj((component, mode, model, qb, m, s), q, cached)
            for qb, m, s, q, cached in rows]})
