"""Heat-diffusion application: component reuse on the SAMR substrate.

The assembly mirrors the case study's (Figure 2) with one substitution:
:class:`HeatRhsComponent` provides the same ``RhsPort`` interface as
InviscidFlux, but computes an explicit diffusion stencil instead of Euler
fluxes.  AMRMesh (patches, ghost exchange, regridding) and RK2 (subcycled
integration) are reused *unchanged* — the CCA reuse claim, executable.

The temperature field rides in the hierarchy's ``rho`` slot; the remaining
conserved fields are passive.  For a Gaussian initial condition the
analytic solution stays Gaussian with variance ``s^2(t) = s0^2 + 2 nu t``,
which the tests verify quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cca.component import Component
from repro.cca.ports import GoPort
from repro.cca.services import Services
from repro.euler.inviscid import RhsPort
from repro.euler.ports import IntegratorPort, MeshPort
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class HeatParams:
    """Configuration of the diffusion mini-app."""

    nx: int = 64
    ny: int = 64
    max_levels: int = 2
    steps: int = 10
    nu: float = 5.0e-3       # diffusivity
    safety: float = 0.4      # fraction of the explicit stability limit
    sigma0: float = 0.08     # initial Gaussian width
    center: tuple[float, float] = (0.5, 0.5)
    amplitude: float = 1.0
    background: float = 0.1
    regrid_every: int = 0


def gaussian_ic(params: HeatParams):
    """Initial condition: background + Gaussian bump in the ``rho`` slot."""

    cx, cy = params.center

    def ic(X: np.ndarray, Y: np.ndarray) -> dict[str, np.ndarray]:
        r2 = (X - cx) ** 2 + (Y - cy) ** 2
        T = params.background + params.amplitude * np.exp(
            -r2 / (2.0 * params.sigma0**2)
        )
        zero = np.zeros_like(T)
        return {"rho": T, "mx": zero, "my": zero, "E": zero}

    return ic


class HeatRhsComponent(Component, RhsPort):
    """Explicit 5-point Laplacian RHS, drop-in for InviscidFlux's RhsPort."""

    PORT_NAME = "rhs"
    FUNCTIONALITY = "rhs"

    def __init__(self, nu: float = 5.0e-3, nghost: int = 2) -> None:
        check_positive("nu", nu)
        if nghost < 1:
            raise ValueError(f"need nghost >= 1, got {nghost}")
        self.nu = float(nu)
        self.nghost = int(nghost)

    def set_services(self, services: Services) -> None:
        services.add_provides_port(self, self.PORT_NAME, RhsPort)

    def flux_divergence(self, U: np.ndarray, dx: float, dy: float) -> np.ndarray:
        """``nu * laplacian(T)`` on the interior; passive fields get zero.

        Returns a fresh array every call, which meets the ``RhsPort``
        lifetime rule (the caller may overwrite the result) trivially.
        """
        if dx <= 0 or dy <= 0:
            raise ValueError(f"cell sizes must be positive, got dx={dx}, dy={dy}")
        g = self.nghost
        T = U[0]
        ni, nj = T.shape
        core = T[g:-g, g:-g]
        lap = (
            (T[g:-g, g + 1 : nj - g + 1] - 2.0 * core + T[g:-g, g - 1 : nj - g - 1]) / dx**2
            + (T[g + 1 : ni - g + 1, g:-g] - 2.0 * core + T[g - 1 : ni - g - 1, g:-g]) / dy**2
        )
        dU = np.zeros((U.shape[0], ni - 2 * g, nj - 2 * g))
        dU[0] = self.nu * lap
        return dU


class HeatDriver(Component, GoPort):
    """Orchestrates the diffusion run (the ShockDriver analog)."""

    MESH_USES = "mesh"
    INTEGRATOR_USES = "integrator"

    def __init__(self, params: HeatParams | None = None) -> None:
        self.params = params or HeatParams()
        check_in_range("safety", self.params.safety, 0.0, 1.0)
        self._services: Services | None = None
        #: total simulated time after go()
        self.elapsed = 0.0

    def set_services(self, services: Services) -> None:
        self._services = services
        services.register_uses_port(self.MESH_USES, MeshPort)
        services.register_uses_port(self.INTEGRATOR_USES, IntegratorPort)
        services.add_provides_port(self, "go", GoPort)

    def stable_dt(self, dx: float, dy: float) -> float:
        """Explicit diffusion stability: dt <= min(dx,dy)^2 / (4 nu)."""
        h = min(dx, dy)
        return self.params.safety * h * h / (4.0 * self.params.nu)

    def go(self) -> int:
        if self._services is None:
            raise RuntimeError("HeatDriver not initialized by a framework")
        p = self.params
        mesh: MeshPort = self._services.get_port(self.MESH_USES)
        integrator: IntegratorPort = self._services.get_port(self.INTEGRATOR_USES)
        mesh.initialize(gaussian_ic(p))
        h = mesh.hierarchy()
        # Subcycling halves dt per level; stability is set by the finest.
        finest = max((lev for lev in range(h.max_levels) if h.levels[lev]),
                     default=0)
        dx_f, dy_f = h.dx(finest)
        dt = self.stable_dt(dx_f, dy_f) * (h.r**finest)
        for step in range(p.steps):
            if step > 0 and p.regrid_every > 0 and step % p.regrid_every == 0:
                mesh.regrid()
            integrator.advance(0, dt)
            self.elapsed += dt
        return 0
