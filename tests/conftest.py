"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.euler.ports import DriverParams
from repro.mpi.network import LOOPBACK, NetworkModel
from repro.mpi.runner import ParallelRunner


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def loopback() -> NetworkModel:
    """Fast, jitter-free network for tests that don't care about timing."""
    return LOOPBACK


@pytest.fixture
def runner3(loopback) -> ParallelRunner:
    """Three simulated ranks with a fast network and short timeout."""
    return ParallelRunner(3, network=loopback, seed=0, timeout_s=30.0)


@pytest.fixture
def refuse_family():
    """``refuse_family(family)`` checks that a job naming a former
    ``collectives=`` family (``"flat"`` or ``"hier"``) is refused with the
    TypeError that names the keyword: no family can price a collective
    other than ``NetworkModel.collective_cost`` any more.  ``None``, the
    one value every job still gets, passes."""
    def check(family):
        if family is not None:
            with pytest.raises(TypeError, match="collectives"):
                ParallelRunner(2, collectives=family)
    return check


@pytest.fixture
def tiny_params() -> DriverParams:
    """A case-study configuration small enough for unit tests."""
    return DriverParams(nx=32, ny=32, max_levels=2, steps=2, regrid_every=2,
                        max_patch_cells=512, blocks=(2, 2))
