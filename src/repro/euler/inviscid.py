"""InviscidFlux: per-patch flux divergence.

Sits between the integrator and the States/Flux components (paper
Figure 2): for one patch's conserved stack it runs both directional sweeps
— "during the execution of the application, both the X- and Y-derivatives
are calculated and the two modes of operation of these components are
invoked in an alternating fashion" — and assembles the right-hand side
``dU/dt = -dF/dx - dG/dy`` on the interior.

Proxies for States and the flux component are interposed on *this*
component's uses ports in the instrumented application.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports import Port
from repro.cca.services import Services
from repro.euler.kernels import TileWorkspace, sweep_tiles
from repro.euler.ports import FluxPort, StatesPort
from repro.perf.proxy import perf_params

#: variable order of mode-"y" flux stacks is (mass, mom_y, mom_x, E);
#: this index map restores (mass, mom_x, mom_y, E)
_Y_REORDER = [0, 2, 1, 3]


class RhsPort(Port):
    """Flux-divergence (spatial RHS) service."""

    @perf_params(lambda args, kwargs: {"Q": int(args[0].shape[-2] * args[0].shape[-1])})
    def flux_divergence(self, U: np.ndarray, dx: float, dy: float) -> np.ndarray:
        """``-dF/dx - dG/dy`` over the interior of a ghosted stack.

        ``U`` is ``(4, Ni, Nj)`` including ghosts; the result is
        ``(4, Ni-2g, Nj-2g)``.  The result may be storage the provider
        owns and reuses: it is valid until this provider's next call, and
        the caller may overwrite it.
        """
        raise NotImplementedError


class InviscidFluxComponent(Component, RhsPort):
    """Directional-sweep RHS assembly using States + a flux implementation."""

    PORT_NAME = "rhs"
    STATES_USES = "states"
    FLUX_USES = "flux"

    def __init__(self, nghost: int = 2) -> None:
        if nghost < 2:
            raise ValueError(f"need nghost >= 2, got {nghost}")
        self.nghost = int(nghost)
        self._services: Services | None = None
        #: per-interface Newton iteration counts of the most recent sweeps,
        #: keyed by mode — populated only when the wired flux kernel exposes
        #: them (GodunovKernel); empty for iteration-free fluxes (EFM) and
        #: when the flux port is reached through a measurement proxy.
        self.last_iter_counts: dict[str, np.ndarray] = {}
        #: backing store of the returned ``dU``, grown to the largest
        #: patch seen, and 4 tile rows for the y-difference
        self._dU = np.empty(0, dtype=np.float64)
        self._workspace = TileWorkspace(nfloat=4)

    def set_services(self, services: Services) -> None:
        self._services = services
        services.register_uses_port(self.STATES_USES, StatesPort)
        services.register_uses_port(self.FLUX_USES, FluxPort)
        services.add_provides_port(self, self.PORT_NAME, RhsPort)

    def _port(self, name: str) -> Port:
        if self._services is None:
            raise RuntimeError("InviscidFluxComponent not initialized by a framework")
        return self._services.get_port(name)

    def flux_divergence(self, U: np.ndarray, dx: float, dy: float) -> np.ndarray:
        if dx <= 0 or dy <= 0:
            raise ValueError(f"cell sizes must be positive, got dx={dx}, dy={dy}")
        states: StatesPort = self._port(self.STATES_USES)
        flux: FluxPort = self._port(self.FLUX_USES)

        # X sweep: sequential access mode.  Its half of dU is finished
        # and its arrays dropped before the y sweep allocates its own.
        WLx, WRx = states.compute(U, "x")
        Fx = flux.compute(WLx, WRx, "x")  # (4, Ni-2g, nfx)
        self._capture_iter_counts(flux, "x")
        _, ni, nj = Fx.shape
        nj -= 1
        if self._dU.size < 4 * ni * nj:
            self._dU = np.empty(4 * ni * nj, dtype=np.float64)
        dU = self._dU[: 4 * ni * nj].reshape(4, ni, nj)
        np.subtract(Fx[:, :, 1:], Fx[:, :, :-1], out=dU)
        np.negative(dU, out=dU)
        dU /= dx
        del WLx, WRx, Fx
        # Y sweep: strided access mode.
        WLy, WRy = states.compute(U, "y")
        Fy = flux.compute(WLy, WRy, "y")  # (4, nfy, Nj-2g)
        self._capture_iter_counts(flux, "y")
        ws = self._workspace
        ws.reserve(ni * nj)
        for lines, along in sweep_tiles(ni, nj):
            upper, lower = Fy[:, 1:][:, lines, along], Fy[:, :-1][:, lines, along]
            dGy = ws.floats[:, : upper[0].size].reshape(upper.shape)
            np.subtract(upper, lower, out=dGy)
            dGy /= dy
            for k, ky in enumerate(_Y_REORDER):
                dU[k, lines, along] -= dGy[ky]
        return dU

    def _capture_iter_counts(self, flux: FluxPort, mode: str) -> None:
        kernel = getattr(flux, "kernel", None)
        counts = getattr(kernel, "last_iter_counts", None)
        if counts is not None:
            self.last_iter_counts[mode] = counts
