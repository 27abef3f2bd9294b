"""ShockDriver: the application orchestrator (paper Figure 2, left).

"On the left is the ShockDriver, a component that orchestrates the
simulation."  Its GoPort sets up the shock/interface problem, then time-
steps the hierarchy, triggering a load-balancing regrid at the configured
interval ("During the course of the simulation, the application was
load-balanced once, resulting in a different domain decomposition" —
Figure 9's two clusters).

The step loop exposes pre/post-step hooks and a resume path for the fault
subsystem: a pre-step hook may raise
:class:`~repro.faults.injector.SimulatedCrash` to kill the run at a
planned step, a post-step hook writes checkpoints, and ``resume_state``
restarts the loop from a checkpoint instead of the initial condition.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro.cca.component import Component
from repro.cca.ports import GoPort
from repro.cca.services import Services
from repro.euler.eos import GAMMA_DEFAULT
from repro.euler.ports import DriverParams, IntegratorPort, MeshPort
from repro.euler.setup import shock_interface_ic


class ShockDriver(Component, GoPort):
    """Top-level driver component (provides port ``"go"``)."""

    MESH_USES = "mesh"
    INTEGRATOR_USES = "integrator"

    def __init__(self, params: DriverParams | None = None,
                 gamma: float = GAMMA_DEFAULT) -> None:
        self.params = params or DriverParams()
        self.gamma = float(gamma)
        self._services: Services | None = None
        #: per-step time step sizes actually taken
        self.dt_history: list[float] = []
        #: called with the step number before each step (crash injection)
        self.pre_step_hooks: list[Callable[[int], None]] = []
        #: called with the step number after each step (checkpointing)
        self.post_step_hooks: list[Callable[[int], None]] = []
        #: checkpoint payload to resume from instead of initializing
        #: (dict with "mesh", "dt_history" and "next_step" entries)
        self.resume_state: dict | None = None
        #: first step of the most recent go() (0 unless resumed)
        self.start_step = 0

    def set_services(self, services: Services) -> None:
        self._services = services
        services.register_uses_port(self.MESH_USES, MeshPort)
        services.register_uses_port(self.INTEGRATOR_USES, IntegratorPort)
        services.add_provides_port(self, "go", GoPort)

    def go(self) -> int:
        """Run the configured number of coarse steps; 0 on success.

        With ``resume_state`` set, the mesh is rebuilt bit-exactly from the
        checkpoint and the loop continues at the saved ``next_step`` —
        everything downstream (regrid cadence, dt, advances) is a pure
        function of the restored fields, so the continuation matches an
        uninterrupted run bitwise.
        """
        if self._services is None:
            raise RuntimeError("ShockDriver not initialized by a framework")
        p = self.params
        mesh: MeshPort = self._services.get_port(self.MESH_USES)
        integrator: IntegratorPort = self._services.get_port(self.INTEGRATOR_USES)
        if self.resume_state is not None:
            mesh.restore(self.resume_state["mesh"])
            self.dt_history = list(self.resume_state["dt_history"])
            self.start_step = int(self.resume_state["next_step"])
        else:
            mesh.initialize(shock_interface_ic(p, self.gamma))
            self.start_step = 0
        obs = getattr(self._services.framework, "obs", None)
        for step in range(self.start_step, p.steps):
            with self._step_span(obs, step):
                for hook in self.pre_step_hooks:
                    hook(step)
                if step > 0 and p.regrid_every > 0 and step % p.regrid_every == 0:
                    mesh.regrid()
                dt = integrator.compute_dt(p.cfl)
                if not np.isfinite(dt) or dt <= 0:
                    raise FloatingPointError(f"unstable time step {dt} at step {step}")
                self.dt_history.append(dt)
                integrator.advance(0, dt)
                for hook in self.post_step_hooks:
                    hook(step)
        return 0

    @staticmethod
    def _step_span(obs, step: int):
        """A per-step span (the critical-path analyzer's step boundaries)."""
        return nullcontext(None) if obs is None else obs.step(step)
