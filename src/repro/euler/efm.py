"""EFMFlux: Equilibrium Flux Method (kinetic flux-vector splitting).

Pullin's EFM computes upwind fluxes by integrating half-Maxwellians —
closed-form expressions in ``erf``/``exp`` per interface, no iteration.
The paper finds its cost linear in Q (Eq. 1: ``T_EFM = -8.13 + 0.16 Q``)
with a *decreasing* standard deviation (Eq. 2's quartic), and prefers it
on performance grounds while GodunovFlux is preferred on accuracy — the
Quality-of-Service example of Section 5.

Split-flux identities: with ``A± = (1 ± erf(s))/2``, ``s = u sqrt(beta)``,
``beta = rho/(2p)``, ``D = exp(-s^2) / (2 sqrt(pi beta))``:

* mass:    ``rho (u A± ± D)``
* normal momentum: ``(rho u^2 + p) A± ± rho u D``
* tangential momentum: ``ut * mass``
* energy:  ``(E + p) u A± ± (E + p/2) D``

``F+(W) + F-(W)`` telescopes to the analytic Euler flux for every W (the
consistency property tests anchor), independent of the D coefficients.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from repro.cca.component import Component
from repro.cca.services import Services
from repro.euler.eos import GAMMA_DEFAULT
from repro.euler.kernels import (IO_ROWS, TileWorkspace, check_mode,
                                 flux_tiles, out_line)
from repro.euler.ports import FluxPort
from repro.tau.hardware import AccessPattern, HardwareCounters

FLOPS_PER_INTERFACE = 60


def efm_half_flux(W: np.ndarray, sign: float, gamma: float) -> np.ndarray:
    """One-sided kinetic flux of a primitive line stack ``(4, n)``.

    ``sign=+1`` gives the rightward (F+) contribution of a left state;
    ``sign=-1`` the leftward (F-) contribution of a right state.
    """
    rho, un, ut, p = W[0], W[1], W[2], W[3]
    beta = rho / (2.0 * p)
    sqb = np.sqrt(beta)
    s = un * sqb
    A = 0.5 * (1.0 + sign * erf(s))
    D = np.exp(-s * s) / (2.0 * np.sqrt(np.pi) * sqb)
    E = p / (gamma - 1.0) + 0.5 * rho * (un * un + ut * ut)
    f_mass = rho * (un * A + sign * D)
    f_momn = (rho * un * un + p) * A + sign * rho * un * D
    f_momt = ut * f_mass
    f_en = (E + p) * un * A + sign * (E + 0.5 * p) * D
    return np.stack([f_mass, f_momn, f_momt, f_en])


def _half_flux_into(W: np.ndarray, sign: float, gamma: float,
                    out: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`efm_half_flux` of a ``(4, m)`` tile into ``out``, no temporaries.

    Same operations in the same order on 7 ``scratch`` rows; a term
    multiplied by ``sign`` there is added or subtracted here, which is the
    same IEEE operation (negation is exact and commutes with a product).
    """
    rho, un, ut, p = W
    sqb, s, A, D, E, t, x = scratch
    plus_minus = np.add if sign > 0 else np.subtract
    np.multiply(p, 2.0, out=sqb)
    np.divide(rho, sqb, out=sqb)
    np.sqrt(sqb, out=sqb)
    np.multiply(un, sqb, out=s)
    erf(s, out=A)
    plus_minus(1.0, A, out=A)
    A *= 0.5
    np.negative(s, out=D)
    D *= s
    np.exp(D, out=D)
    np.multiply(sqb, 2.0 * np.sqrt(np.pi), out=t)
    D /= t
    np.multiply(un, un, out=t)
    np.multiply(ut, ut, out=x)
    t += x
    np.multiply(rho, 0.5, out=x)
    x *= t
    np.divide(p, gamma - 1.0, out=E)
    E += x
    f_mass, f_momn, f_momt, f_en = out
    np.multiply(un, A, out=f_mass)
    plus_minus(f_mass, D, out=f_mass)
    f_mass *= rho
    np.multiply(rho, un, out=x)
    np.multiply(x, un, out=f_momn)
    f_momn += p
    f_momn *= A
    x *= D
    plus_minus(f_momn, x, out=f_momn)
    np.multiply(ut, f_mass, out=f_momt)
    np.add(E, p, out=f_en)
    f_en *= un
    f_en *= A
    np.multiply(p, 0.5, out=x)
    x += E
    x *= D
    plus_minus(f_en, x, out=f_en)


class EFMKernel:
    """EFM flux evaluation, batched by default.

    ``batch=True`` walks a sweep in bounded tiles (:func:`flux_tiles`) and
    evaluates each with ``out=`` arithmetic on this instance's
    :class:`TileWorkspace`, so the only array a call allocates is the
    flux it returns; ``batch=False`` is the historical line-at-a-time
    loop over the allocating :func:`efm_half_flux`, kept as the bitwise
    oracle.
    """

    def __init__(self, gamma: float = GAMMA_DEFAULT,
                 counters: HardwareCounters | None = None,
                 batch: bool = True) -> None:
        self.gamma = float(gamma)
        self.counters = counters
        self.batch = bool(batch)
        #: the tile walk's rows, 7 of scratch and 4 for the F- half flux
        self.workspace = TileWorkspace(nfloat=IO_ROWS + 11)

    def compute(self, WL: np.ndarray, WR: np.ndarray, mode: str = "x") -> np.ndarray:
        """Interface fluxes for patch-oriented state stacks (see States).

        Mode "y" stacks have interfaces on the strided axis, so reads and
        writes on that axis are strided — the flux components inherit the
        dual-mode cache behaviour (paper Figures 7-8).
        """
        check_mode(mode)
        if WL.shape != WR.shape or WL.ndim != 3 or WL.shape[0] != 4:
            raise ValueError(f"bad state stacks: {WL.shape} vs {WR.shape}")
        F = np.empty(WL.shape, dtype=np.float64)
        if self.batch:
            ws = self.workspace
            for _at, wl, wr, f, _runs in flux_tiles(WL, WR, F, mode, ws):
                rows = ws.floats[IO_ROWS:, : f.shape[1]]
                _half_flux_into(wl, +1.0, self.gamma, f, rows[:7])
                _half_flux_into(wr, -1.0, self.gamma, rows[7:], rows[:7])
                f += rows[7:]
        else:
            nlines = WL.shape[1] if mode == "x" else WL.shape[2]
            for ell in range(nlines):
                fl = out_line(F, mode, ell)
                fl[...] = (
                    efm_half_flux(out_line(WL, mode, ell), +1.0, self.gamma)
                    + efm_half_flux(out_line(WR, mode, ell), -1.0, self.gamma)
                )
        if self.counters is not None:
            q = int(WL[0].size)
            pattern = AccessPattern.SEQUENTIAL if mode == "x" else AccessPattern.STRIDED
            self.counters.record_array_walk(q, pattern=pattern, passes=2)
            self.counters.record_flops(FLOPS_PER_INTERFACE * q)
        return F


class EFMFluxComponent(Component, FluxPort):
    """CCA packaging of :class:`EFMKernel` (provides port ``"flux"``).

    QUALITY is below GodunovFlux's: EFM is more dissipative ("GodunovFlux
    is the preferred choice for scientists (it is more accurate)").
    """

    PORT_NAME = "flux"
    FUNCTIONALITY = "flux"
    QUALITY = 0.85

    def __init__(self, gamma: float = GAMMA_DEFAULT, batch: bool = True) -> None:
        self._gamma = gamma
        self._batch = bool(batch)
        self._kernel: EFMKernel | None = None

    def set_services(self, services: Services) -> None:
        counters = services.framework.profiler.counters
        self._kernel = EFMKernel(self._gamma, counters, batch=self._batch)
        services.add_provides_port(self, self.PORT_NAME, FluxPort)

    @property
    def kernel(self) -> EFMKernel:
        if self._kernel is None:
            self._kernel = EFMKernel(self._gamma, batch=self._batch)
        return self._kernel

    def compute(self, WL: np.ndarray, WR: np.ndarray, mode: str = "x") -> np.ndarray:
        return self.kernel.compute(WL, WR, mode)
