"""Metrics registry unit tests: instruments, merging, exposition."""

import json
import math

import pytest

from repro.obs.metrics import (MetricsRegistry, log_buckets, merge_registries)


# -------------------------------------------------------------- instruments
def test_counter_inc_and_negative_rejected():
    reg = MetricsRegistry(rank=0)
    c = reg.counter("ops_total", "operations")
    c.inc()
    c.inc(4)
    assert c.value == 5.0
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("depth")
    g.set(7)
    g.inc(2)
    g.dec()
    assert g.value == 8.0


def test_histogram_observe_and_quantile():
    h = MetricsRegistry().histogram("lat_us", bounds=[1.0, 10.0, 100.0])
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    assert h.bucket_counts == [1, 1, 1]
    assert h.inf_count == 1
    assert h.count == 4
    assert h.total == 555.5
    assert h.mean == pytest.approx(138.875)
    assert h.quantile(0.5) == 10.0


def _bucket_by_loop(bounds, value):
    """The reference: a linear scan for the first bound >= value, with
    anything that is <= no bound (past the last one, or NaN) in +Inf."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def test_histogram_buckets_equal_the_reference_scan():
    bounds = log_buckets()
    between = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    values = [*bounds, *between, 0.0, -3.0, bounds[0] / 2,
              bounds[-1] * 1.5, math.inf, -math.inf, math.nan]
    h = MetricsRegistry().histogram("cost_us", bounds=bounds)
    want = [0] * (len(bounds) + 1)
    for v in values:
        h.observe(v)
        want[_bucket_by_loop(bounds, v)] += 1
    assert h.bucket_counts + [h.inf_count] == want
    assert h.count == len(values)
    assert want[-1] == 3  # beyond the last bound, +inf and NaN


def test_log_buckets_span_and_validation():
    b = log_buckets(1.0, 1e3, per_decade=1)
    assert b == (1.0, 10.0, 100.0, 1000.0)
    with pytest.raises(ValueError):
        log_buckets(0.0, 10.0)
    with pytest.raises(ValueError):
        log_buckets(10.0, 1.0)


def test_labels_create_distinct_series():
    reg = MetricsRegistry()
    reg.counter("calls_total", routine="MPI_Send").inc()
    reg.counter("calls_total", routine="MPI_Recv").inc(2)
    # Same name+labels returns the same instrument.
    assert reg.counter("calls_total", routine="MPI_Send").value == 1.0
    assert len(reg.series()) == 2


def test_name_bound_to_one_kind():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


# ------------------------------------------------------------------- merge
def test_merge_sums_counters_and_histograms_maxes_gauges():
    a, b = MetricsRegistry(rank=0), MetricsRegistry(rank=1)
    a.counter("n").inc(3)
    b.counter("n").inc(4)
    a.gauge("peak").set(10)
    b.gauge("peak").set(6)
    a.histogram("t", bounds=[1.0, 10.0]).observe(5.0)
    b.histogram("t", bounds=[1.0, 10.0]).observe(0.5)
    m = merge_registries([a, b])
    assert m.counter("n").value == 7.0
    assert m.gauge("peak").value == 10.0
    h = m.histogram("t")
    assert h.bucket_counts == [1, 1]
    assert h.count == 2


def test_merge_rejects_bound_mismatch_and_kind_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("t", bounds=[1.0, 10.0]).observe(1.0)
    b.histogram("t", bounds=[1.0, 100.0]).observe(1.0)
    with pytest.raises(ValueError, match="bucket bounds differ"):
        merge_registries([a, b])
    c, d = MetricsRegistry(), MetricsRegistry()
    c.counter("y").inc()
    d.gauge("y").set(1)
    with pytest.raises(ValueError, match="kind"):
        merge_registries([c, d])


# -------------------------------------------------------------- exposition
def test_json_snapshot_round_trips():
    reg = MetricsRegistry(rank=2)
    reg.counter("a_total", "things", kind="x").inc(3)
    reg.histogram("b_us", bounds=[1.0, 10.0]).observe(2.0)
    snap = json.loads(reg.to_json())
    assert snap["rank"] == 2
    by_name = {m["name"]: m for m in snap["metrics"]}
    assert by_name["a_total"]["value"] == 3.0
    assert by_name["a_total"]["labels"] == {"kind": "x"}
    assert by_name["b_us"]["bucket_counts"] == [0, 1]
    assert by_name["b_us"]["sum"] == 2.0


def test_prometheus_exposition_format():
    reg = MetricsRegistry(rank=1)
    reg.counter("ops_total", "operation count", routine="send").inc(5)
    reg.histogram("t_us", "timings", bounds=[1.0, 10.0]).observe(3.0)
    text = reg.to_prometheus()
    assert "# HELP ops_total operation count" in text
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{rank="1",routine="send"} 5' in text
    # Histogram buckets cumulate and end at +Inf.
    assert 't_us_bucket{le="1",rank="1"} 0' in text
    assert 't_us_bucket{le="10",rank="1"} 1' in text
    assert 't_us_bucket{le="+Inf",rank="1"} 1' in text
    assert 't_us_sum{rank="1"} 3' in text
    assert 't_us_count{rank="1"} 1' in text
    assert text.endswith("\n")


def test_merged_registry_has_no_rank_label():
    a = MetricsRegistry(rank=0)
    a.counter("n").inc()
    m = merge_registries([a])
    assert "rank=" not in m.to_prometheus()
