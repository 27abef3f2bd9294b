"""Ideal-gas (gamma-law) equation of state and Euler flux algebra.

Conserved variables (2-D): ``U = (rho, rho*u, rho*v, E)`` with total energy
``E = p/(gamma-1) + rho*(u^2+v^2)/2``.  Primitive variables:
``W = (rho, u, v, p)``.

The paper's problem pairs Air and Freon; a full two-gas treatment needs a
species/gamma field.  We use a single gamma with the Air/Freon density
ratio (DESIGN.md substitution) — the flux components' code paths and costs
are unchanged.
"""

from __future__ import annotations

import numpy as np

GAMMA_DEFAULT = 1.4

#: floors applied to keep the solver out of unphysical states
RHO_FLOOR = 1e-10
P_FLOOR = 1e-10


def pressure(U: np.ndarray, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """Pressure from a conserved stack ``U`` of shape (4, ...)."""
    rho = np.maximum(U[0], RHO_FLOOR)
    ke = 0.5 * (U[1] ** 2 + U[2] ** 2) / rho
    return np.maximum((gamma - 1.0) * (U[3] - ke), P_FLOOR)


def sound_speed(rho: np.ndarray, p: np.ndarray, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """Speed of sound ``c = sqrt(gamma p / rho)``."""
    return np.sqrt(gamma * np.maximum(p, P_FLOOR) / np.maximum(rho, RHO_FLOOR))


def primitive_from_conserved(U: np.ndarray, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """``(4, ...)`` conserved stack -> ``(4, ...)`` primitive stack."""
    rho = np.maximum(U[0], RHO_FLOOR)
    u = U[1] / rho
    v = U[2] / rho
    p = pressure(U, gamma)
    return np.stack([rho, u, v, p])


def conserved_from_primitive(W: np.ndarray, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """``(4, ...)`` primitive stack -> ``(4, ...)`` conserved stack."""
    rho, u, v, p = W[0], W[1], W[2], W[3]
    E = p / (gamma - 1.0) + 0.5 * rho * (u**2 + v**2)
    return np.stack([rho, rho * u, rho * v, E])


def flux_x(W: np.ndarray, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """Analytic x-direction Euler flux of a primitive stack.

    For a sweep in y, pass W with u and v swapped (the standard rotation
    trick); the caller swaps momentum components back afterwards.
    """
    rho, u, v, p = W[0], W[1], W[2], W[3]
    E = p / (gamma - 1.0) + 0.5 * rho * (u**2 + v**2)
    return np.stack([rho * u, rho * u * u + p, rho * u * v, (E + p) * u])


def max_wavespeed(U: np.ndarray, gamma: float = GAMMA_DEFAULT) -> float:
    """``max(|u|+c, |v|+c)`` over the stack — the CFL signal speed.

    The per-element arithmetic of :func:`primitive_from_conserved` and
    :func:`sound_speed`, in three block-sized temporaries; their repeated
    floors are idempotent and left out, so the result is bitwise equal.
    """
    rho = np.maximum(U[0], RHO_FLOOR)
    c = np.square(U[1])
    a = np.square(U[2])
    c += a
    c *= 0.5
    c /= rho  # kinetic energy
    np.subtract(U[3], c, out=c)
    c *= gamma - 1.0
    np.maximum(c, P_FLOOR, out=c)  # pressure
    c *= gamma
    c /= rho
    np.sqrt(c, out=c)
    np.divide(U[1], rho, out=a)
    np.abs(a, out=a)
    a += c
    np.divide(U[2], rho, out=rho)
    np.abs(rho, out=rho)
    rho += c
    np.maximum(a, rho, out=a)
    return float(a.max())
