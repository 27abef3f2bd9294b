"""Port interfaces of the case-study application (paper Figure 2).

The ``perf_params`` mark-up on each interface declares which inputs the
proxies must extract for the Mastermind: the array size Q ("the actual
number of elements in the array") and the access mode (sequential X /
strided Y), exactly the parameters the paper's models depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cca.ports import Port
from repro.perf.proxy import perf_params


def _states_params(args: tuple, kwargs: dict) -> dict:
    U = args[0]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "x")
    return {"Q": int(U.shape[-2] * U.shape[-1]), "mode": mode}


def _flux_params(args: tuple, kwargs: dict) -> dict:
    WL = args[0]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "x")
    return {"Q": int(np.asarray(WL[0]).size), "mode": mode}


class StatesPort(Port):
    """Primitive/interface-state reconstruction on one patch array."""

    @perf_params(_states_params)
    def compute(self, U: np.ndarray, mode: str = "x") -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct left/right interface primitive states.

        ``U`` is the conserved stack ``(4, Ni, Nj)`` including ghosts;
        ``mode`` selects the sweep direction: ``"x"`` (sequential array
        access) or ``"y"`` (strided).  Returns ``(WL, WR)`` stacks of
        ``(rho, u_normal, u_tangential, p)`` at the sweep interfaces,
        freshly allocated: the caller may keep them across calls.
        """
        raise NotImplementedError


class FluxPort(Port):
    """Numerical flux at interfaces from left/right states."""

    @perf_params(_flux_params)
    def compute(self, WL: np.ndarray, WR: np.ndarray, mode: str = "x") -> np.ndarray:
        """Interface fluxes ``(mass, mom_normal, mom_tangential, energy)``.

        Shapes follow the States output for the same ``mode``.  The
        result is freshly allocated (the caller may keep it across calls);
        whatever scratch an implementation reuses between calls stays
        inside it.
        """
        raise NotImplementedError


def _mesh_level_params(args: tuple, kwargs: dict) -> dict:
    level = args[0] if args else kwargs.get("level", 0)
    return {"level": int(level)}


class MeshPort(Port):
    """AMRMesh services: patches, ghost updates, regridding."""

    def initialize(self, ic) -> None:
        """Build the hierarchy and fill all levels from ``ic(X, Y)``."""
        raise NotImplementedError

    @perf_params(_mesh_level_params)
    def ghost_update(self, level: int) -> float:
        """Fill ghost cells on a level; returns modeled MPI time (us)."""
        raise NotImplementedError

    @perf_params(_mesh_level_params)
    def sync_down(self, level: int) -> float:
        """Restrict level+1 onto level; returns modeled MPI time (us)."""
        raise NotImplementedError

    def regrid(self) -> float:
        """Re-flag, re-cluster and re-balance; returns MPI time (us)."""
        raise NotImplementedError

    def restore(self, state: dict) -> None:
        """Rebuild the hierarchy bit-exactly from a checkpoint state."""
        raise NotImplementedError

    def local_patches(self, level: int):
        raise NotImplementedError

    def hierarchy(self):
        raise NotImplementedError


class IntegratorPort(Port):
    """Time integration over the hierarchy."""

    def compute_dt(self, cfl: float) -> float:
        """Globally reduced stable time step."""
        raise NotImplementedError

    def advance(self, level: int, dt: float) -> None:
        """Advance a level and, recursively, its finer levels."""
        raise NotImplementedError


@dataclass(frozen=True)
class DriverParams:
    """ShockDriver configuration (see :mod:`repro.euler.setup`)."""

    nx: int = 64
    ny: int = 64
    max_levels: int = 3
    steps: int = 4
    cfl: float = 0.4
    mach: float = 1.5
    interface_x: float = 0.55
    shock_x: float = 0.35
    density_ratio: float = 4.17  # Freon-22 / Air, the paper's gas pair
    regrid_every: int = 2
    blocks: tuple[int, int] = (2, 2)
    flag_threshold: float = 0.05
    max_patch_cells: int = 4096
    #: evaluate States/flux kernels in batched (vectorized-sweep) form;
    #: False restores the historical per-line loops for A/B comparison
    batch: bool = True
