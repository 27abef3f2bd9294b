"""Equation of state and flux algebra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.eos import (conserved_from_primitive, flux_x,
                             max_wavespeed, pressure,
                             primitive_from_conserved, sound_speed)
from repro.util.rng import make_rng


def prim_stacks():
    pos = st.floats(0.05, 50.0)
    vel = st.floats(-10.0, 10.0)
    return st.builds(
        lambda r, u, v, p: np.array([[r], [u], [v], [p]]),
        pos, vel, vel, pos,
    )


def test_pressure_of_known_state():
    W = np.array([[1.0], [2.0], [0.0], [1.0]])
    U = conserved_from_primitive(W)
    # E = p/(g-1) + rho u^2/2 = 2.5 + 2 = 4.5
    assert U[3, 0] == pytest.approx(4.5)
    assert pressure(U)[0] == pytest.approx(1.0)


def test_sound_speed_air():
    c = sound_speed(np.array(1.4), np.array(1.0))
    assert float(c) == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(W=prim_stacks())
def test_primitive_conserved_roundtrip(W):
    U = conserved_from_primitive(W)
    W2 = primitive_from_conserved(U)
    assert np.allclose(W, W2, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(W=prim_stacks())
def test_flux_consistency_mass_momentum(W):
    F = flux_x(W)
    rho, u, v, p = W[:, 0]
    assert F[0, 0] == pytest.approx(rho * u, rel=1e-12, abs=1e-12)
    assert F[1, 0] == pytest.approx(rho * u * u + p, rel=1e-12, abs=1e-12)
    assert F[2, 0] == pytest.approx(rho * u * v, rel=1e-12, abs=1e-12)


def test_flux_zero_velocity_only_pressure():
    W = np.array([[2.0], [0.0], [0.0], [3.0]])
    F = flux_x(W)
    assert F[0, 0] == 0.0 and F[2, 0] == 0.0 and F[3, 0] == 0.0
    assert F[1, 0] == 3.0


@settings(max_examples=50, deadline=None)
@given(W=prim_stacks())
def test_max_wavespeed_at_least_flow_speed(W):
    U = conserved_from_primitive(W)
    s = max_wavespeed(U)
    assert s >= abs(W[1, 0]) - 1e-9
    assert s >= abs(W[2, 0]) - 1e-9
    assert np.isfinite(s)


def test_floors_protect_degenerate_states():
    U = np.array([[1e-20], [0.0], [0.0], [-5.0]])
    p = pressure(U)
    assert p[0] > 0
    W = primitive_from_conserved(U)
    assert np.isfinite(W).all()


def _max_wavespeed_reference(U, gamma=1.4):
    """The formula through the full primitive stack (the oracle)."""
    W = primitive_from_conserved(U, gamma)
    c = sound_speed(W[0], W[3], gamma)
    return float(np.maximum(np.abs(W[1]) + c, np.abs(W[2]) + c).max())


def _seeded_stack(seed, shape=(4, 37, 41)):
    rng = make_rng(seed)
    W = np.stack([rng.uniform(0.05, 50.0, shape[1:]),
                  rng.uniform(-10.0, 10.0, shape[1:]),
                  rng.uniform(-10.0, 10.0, shape[1:]),
                  rng.uniform(0.05, 50.0, shape[1:])])
    return conserved_from_primitive(W)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_max_wavespeed_bitwise_equals_primitive_formula(seed, gamma):
    U = _seeded_stack(seed)
    assert max_wavespeed(U, gamma) == _max_wavespeed_reference(U, gamma)


@pytest.mark.parametrize("seed", range(4))
def test_max_wavespeed_bitwise_on_floor_level_stacks(seed):
    """Densities and pressures at and below the floors take the same
    floored path as the primitive formula."""
    rng = make_rng(100 + seed)
    U = _seeded_stack(seed, (4, 16, 16))
    U[0, ::3] = rng.uniform(-1.0, 1e-10, U[0, ::3].shape)
    U[0, 1::5] = 1e-10
    U[3, ::2] = rng.uniform(-5.0, 0.0, U[3, ::2].shape)
    assert max_wavespeed(U) == _max_wavespeed_reference(U)


def test_max_wavespeed_uses_at_most_three_block_temporaries():
    U = _seeded_stack(0, (4, 260, 260))
    max_wavespeed(U)  # warm any one-time allocations
    tracemalloc.start()
    try:
        max_wavespeed(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = U[0].nbytes
    assert peak <= 3 * block + 4096, peak / block
