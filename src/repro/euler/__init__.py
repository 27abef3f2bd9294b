"""The case-study application: 2-D Euler equations on SAMR (paper Section 5).

"The code simulates the interaction of a shock wave with an interface
between two gases" using structured adaptive mesh refinement.  The
component decomposition follows the paper's Figure 2:

* :class:`ShockDriver` — orchestrates the simulation (GoPort);
* :class:`AMRMeshComponent` — manages patches, ghost-cell updates, load
  balancing / domain (re-)decomposition (all the message passing);
* :class:`RK2Component` — orchestrates the recursive processing of patches
  (the L0 L1 L2 L2 L1 L2 L2 sequence);
* :class:`InviscidFluxComponent` — per-patch flux divergence, invoking:
* :class:`StatesComponent` — primitive/interface-state reconstruction, dual
  sequential (X) / strided (Y) array-access modes;
* :class:`EFMFluxComponent` — kinetic (Equilibrium Flux Method) fluxes,
  closed-form per interface;
* :class:`GodunovFluxComponent` — exact-Riemann-solver fluxes with an
  internal iterative solution per interface (substitutable for EFMFlux).
"""

from repro.euler.eos import (
    GAMMA_DEFAULT,
    conserved_from_primitive,
    primitive_from_conserved,
    sound_speed,
    pressure,
    flux_x,
)
from repro.euler.ports import StatesPort, FluxPort, MeshPort, IntegratorPort, DriverParams
from repro.euler.states import StatesComponent, StatesKernel
from repro.euler.godunov import GodunovFluxComponent, GodunovKernel
from repro.euler.inviscid import InviscidFluxComponent
from repro.euler.rk2 import RK2Component
from repro.euler.mesh_component import AMRMeshComponent
from repro.euler.shockdriver import ShockDriver
from repro.euler.setup import shock_interface_ic, post_shock_state
from repro.euler.riemann_exact import sample_riemann, sod_exact, SOD_LEFT, SOD_RIGHT

__all__ = [
    "GAMMA_DEFAULT",
    "conserved_from_primitive",
    "primitive_from_conserved",
    "sound_speed",
    "pressure",
    "flux_x",
    "StatesPort",
    "FluxPort",
    "MeshPort",
    "IntegratorPort",
    "DriverParams",
    "StatesComponent",
    "StatesKernel",
    "EFMFluxComponent",
    "EFMKernel",
    "GodunovFluxComponent",
    "GodunovKernel",
    "InviscidFluxComponent",
    "RK2Component",
    "AMRMeshComponent",
    "ShockDriver",
    "shock_interface_ic",
    "post_shock_state",
    "sample_riemann",
    "sod_exact",
    "SOD_LEFT",
    "SOD_RIGHT",
]


def __getattr__(name: str):
    # PEP 562: EFM's module imports scipy, which a run that never names
    # the EFM flux should not load.
    if name in ("EFMFluxComponent", "EFMKernel"):
        from repro.euler import efm

        return getattr(efm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
