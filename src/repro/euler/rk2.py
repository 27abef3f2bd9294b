"""RK2: the recursive patch-processing orchestrator.

"The RK2 component below it orchestrates the recursive processing of
patches" (paper Figure 2).  A two-stage (Heun) Runge-Kutta step is applied
to every local patch of a level; finer levels are subcycled ``r`` times per
parent step — for r=2 and three levels this is exactly the paper's
processing sequence ``L0, L1, L2, L2, L1, L2, L2`` — and each recursion
ends with a conservative fine-to-coarse synchronization.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.services import Services
from repro.euler.eos import GAMMA_DEFAULT, max_wavespeed
from repro.euler.inviscid import RhsPort
from repro.euler.ports import IntegratorPort, MeshPort


class RK2Component(Component, IntegratorPort):
    """Two-stage TVD Runge-Kutta over the AMR hierarchy."""

    PORT_NAME = "integrator"
    MESH_USES = "mesh"
    RHS_USES = "rhs"

    def __init__(self, gamma: float = GAMMA_DEFAULT) -> None:
        self.gamma = float(gamma)
        self._services: Services | None = None
        #: processing trace of level visits (testable against the paper's
        #: L0 L1 L2 L2 L1 L2 L2 sequence)
        self.level_trace: list[int] = []

    def set_services(self, services: Services) -> None:
        self._services = services
        services.register_uses_port(self.MESH_USES, MeshPort)
        services.register_uses_port(self.RHS_USES, RhsPort)
        services.add_provides_port(self, self.PORT_NAME, IntegratorPort)

    def _mesh(self) -> MeshPort:
        if self._services is None:
            raise RuntimeError("RK2Component not initialized by a framework")
        return self._services.get_port(self.MESH_USES)

    def _rhs(self) -> RhsPort:
        assert self._services is not None
        return self._services.get_port(self.RHS_USES)

    # ------------------------------------------------------ IntegratorPort
    def compute_dt(self, cfl: float) -> float:
        """Globally stable level-0 time step (finer levels subcycle).

        Reduces the max wavespeed over all local patches of all levels,
        then across ranks (MPI_Allreduce).
        """
        if not (0.0 < cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {cfl}")
        mesh = self._mesh()
        h = mesh.hierarchy()
        smax = 1e-30
        for lev in range(h.max_levels):
            for patch in mesh.local_patches(lev):
                smax = max(smax, max_wavespeed(patch.block, self.gamma))
        if h.comm is not None:
            smax = h.comm.allreduce(smax, op="max")
        dx0, dy0 = h.dx(0)
        return cfl * min(dx0, dy0) / smax

    def advance(self, level: int, dt: float) -> None:
        """Advance ``level`` by ``dt`` with RK2, recursing into finer levels."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        mesh = self._mesh()
        h = mesh.hierarchy()
        rhs = self._rhs()
        self.level_trace.append(level)
        dx, dy = h.dx(level)
        g = h.nghost

        mesh.ghost_update(level)
        # A patch's block is its conserved stack: read it in place, take
        # the provider's dU (ours to overwrite until its next call) and
        # update the 4-field interior with one operation.
        saved: dict[int, np.ndarray] = {}
        # Stage 1: U1 = U0 + dt L(U0)
        for patch in mesh.local_patches(level):
            interior = patch.block[:, g:-g, g:-g]
            saved[patch.uid] = interior.copy()
            dU = rhs.flux_divergence(patch.block, dx, dy)
            dU *= dt
            interior += dU
        mesh.ghost_update(level)
        # Stage 2: U = (U0 + U1 + dt L(U1)) / 2
        for patch in mesh.local_patches(level):
            interior = patch.block[:, g:-g, g:-g]
            dU = rhs.flux_divergence(patch.block, dx, dy)
            dU *= dt
            U_new = saved[patch.uid]
            U_new += interior
            U_new += dU
            U_new *= 0.5
            interior[...] = U_new
        # Subcycle finer level, then synchronize downward.
        if level + 1 < h.max_levels and h.levels[level + 1]:
            sub_dt = dt / h.r
            for _ in range(h.r):
                self.advance(level + 1, sub_dt)
            mesh.sync_down(level)
