"""AMRMesh: the component that manages the patch hierarchy.

"On its right is AMRMesh that manages the patches" — and, per the paper's
profile, performs essentially all the application's message passing: the
``MPI_Waitsome``-dominated ghost-cell updates and the load-balancing /
domain (re-)decomposition of the regrid step (Figures 3 and 9).

The component wraps :class:`~repro.amr.hierarchy.GridHierarchy`, fetching
the rank communicator through the framework's builtin MPI port; a proxy on
its MeshPort records per-level ghost-update costs for Figure 9.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.services import Services
from repro.euler.ports import DriverParams, MeshPort

#: conserved-variable field names on every patch
FIELDS = ("rho", "mx", "my", "E")


def stack_fields(patch) -> np.ndarray:
    """Conserved stack ``(4, Ni, Nj)`` (a copy) of one patch.

    The single gather point for patch-to-kernel data marshalling: the
    stacked array is what the batched sweep kernels consume.  The mesh
    allocates every patch with ``FIELDS``, so the stack is the patch's
    storage block.
    """
    return patch.block.copy()


class AMRMeshComponent(Component, MeshPort):
    """CCA packaging of the SAMR hierarchy (provides port ``"mesh"``)."""

    PORT_NAME = "mesh"
    FUNCTIONALITY = "mesh"

    def __init__(self, params: DriverParams | None = None, nghost: int = 2,
                 balancer: str = "knapsack") -> None:
        self.params = params or DriverParams()
        self.nghost = int(nghost)
        self.balancer = balancer
        self._hierarchy: GridHierarchy | None = None
        self._services: Services | None = None

    # --------------------------------------------------------------- CCA
    def set_services(self, services: Services) -> None:
        self._services = services
        services.add_provides_port(self, self.PORT_NAME, MeshPort)

    def _build_hierarchy(self) -> GridHierarchy:
        p = self.params
        comm = None
        if self._services is not None:
            fw: Framework = self._services.framework
            comm = fw.comm
        domain = Box(0, 0, p.ny - 1, p.nx - 1)  # axis 0 = y rows, axis 1 = x cols
        return GridHierarchy(
            domain,
            FIELDS,
            comm=comm,
            max_levels=p.max_levels,
            nghost=self.nghost,
            flag_threshold=p.flag_threshold,
            max_patch_cells=p.max_patch_cells,
            balancer=self.balancer,
        )

    # ---------------------------------------------------------- MeshPort
    def initialize(self, ic: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]) -> None:
        """Build the hierarchy and fill every level with the analytic IC.

        Levels are created by successive regrids; each new level is refilled
        from the analytic initial condition for sharp flagging.
        """
        self._hierarchy = self._build_hierarchy()
        h = self._hierarchy
        h.init_level0(blocks=self.params.blocks)
        h.fill(0, ic)
        h.ghost_update(0)
        for _ in range(self.params.max_levels - 1):
            h.regrid()
            for lev in range(1, self.params.max_levels):
                if h.levels[lev]:
                    h.fill(lev, ic)
                    h.ghost_update(lev)

    def restore(self, state: dict) -> None:
        """Rebuild the hierarchy from a checkpoint state (bit-exact).

        Replaces :meth:`initialize` on a restarted run: the hierarchy is
        constructed with the same configuration, then every patch, field
        array (ghosts included), uid counter and exchanger tag is loaded
        from the saved state, so the continuation is bitwise identical to
        the uninterrupted run.
        """
        from repro.faults.checkpoint import restore_hierarchy

        self._hierarchy = self._build_hierarchy()
        restore_hierarchy(self._hierarchy, state)

    def hierarchy(self) -> GridHierarchy:
        if self._hierarchy is None:
            raise RuntimeError("AMRMesh not initialized; call initialize(ic) first")
        return self._hierarchy

    def ghost_update(self, level: int) -> float:
        return self.hierarchy().ghost_update(level)

    def sync_down(self, level: int) -> float:
        return self.hierarchy().sync_down(level)

    def regrid(self) -> float:
        return self.hierarchy().regrid()

    def local_patches(self, level: int):
        return self.hierarchy().local_patches(level)

    # ------------------------------------------------------- conveniences
    def stack(self, patch) -> np.ndarray:
        """Conserved stack ``(4, Ni, Nj)`` (a copy) of one patch."""
        return stack_fields(patch)

    def write_interior(self, patch, U_int: np.ndarray) -> None:
        """Write an interior-shaped conserved stack back into a patch."""
        for k, f in enumerate(FIELDS):
            patch.interior(f)[...] = U_int[k]
