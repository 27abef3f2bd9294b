"""Sampling limits at a coarse fixed rate, and the ObsConfig checks.

Sampling is the fixed ``sample_every`` rule: these tests pin down what a
coarse rate may drop (proxied compute spans, each counted) and what it
must keep (every MPI span), as wired through :class:`RankObs`.
"""

import pytest

from repro.obs import ObsConfig, RankObs
from repro.obs.span import CAT_COMPUTE, CAT_MPI


def _work(tr, name="work", n=1):
    for _ in range(n):
        with tr.span(name, CAT_COMPUTE, sampled=True):
            pass


# ------------------------------------------------------------- tracer wiring
def test_mpi_spans_never_sampled_out():
    ro = RankObs(0, ObsConfig(sample_every=64))
    tr = ro.tracer
    _work(tr, n=300)
    assert tr.sampled_out > 0
    before = len(tr)
    # MPI ops are opened with sampled=False by the comm layer: all kept,
    # even interleaved with compute spans that are being dropped.
    for _ in range(50):
        with tr.span("MPI_Send", CAT_MPI):
            pass
        _work(tr)
    names = [s.name for s in tr.spans()[before:]]
    assert names.count("MPI_Send") == 50


def test_sampled_out_spans_still_counted():
    ro = RankObs(0, ObsConfig(sample_every=4))
    tr = ro.tracer
    _work(tr, n=40)
    assert tr.sampled_out == 30  # 1-in-4 kept per name
    assert len(tr) == 10
    # Each name has its own counter, so the count is per name too.
    _work(tr, "flux", n=8)
    assert tr.sampled_out == 36
    assert len(tr) == 12


# ----------------------------------------------------------- config plumbing
def test_obsconfig_validation():
    with pytest.raises(ValueError, match="sample_every"):
        ObsConfig(sample_every=0)
    with pytest.raises(ValueError, match="max_spans"):
        ObsConfig(max_spans=1)
    with pytest.raises(ValueError, match="flightrec_depth"):
        ObsConfig(flightrec_depth=0)
    assert ObsConfig(sample_every=8).sample_every == 8
