"""Composition and execution of the instrumented case-study application.

Assembles the paper's Figure 2 component graph: ShockDriver, AMRMesh, RK2,
InviscidFlux, States and a flux implementation (EFMFlux or GodunovFlux),
plus the PMM infrastructure — TauMeasurement, Mastermind and three proxies
(States, flux, AMRMesh) interposed exactly as in the paper.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any

from repro.cca.framework import Framework
from repro.cca.scmd import ScmdResult, run_scmd
from repro.faults.checkpoint import (CheckpointConfig, Checkpointer,
                                     hierarchy_state, latest_step,
                                     load_rank_state)
from repro.faults.injector import SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.euler.inviscid import InviscidFluxComponent
from repro.euler.mesh_component import AMRMeshComponent
from repro.euler.ports import DriverParams
from repro.euler.rk2 import RK2Component
from repro.euler.shockdriver import ShockDriver
from repro.euler.states import StatesComponent
from repro.mpi.network import NetworkModel
from repro.perf.mastermind import Mastermind
from repro.perf.proxy import insert_proxy
from repro.tau.component import TauMeasurementComponent

#: flux name -> (module, class).  A flux's module is imported only by
#: :func:`flux_class`, so a run loads the flux its config names and no
#: other (EFM's module brings scipy with it).
FLUX_MODULES = {
    "efm": ("repro.euler.efm", "EFMFluxComponent"),
    "godunov": ("repro.euler.godunov", "GodunovFluxComponent"),
}


def flux_class(name: str) -> type:
    """The flux component class named ``name``, importing its module."""
    try:
        module, cls = FLUX_MODULES[name]
    except KeyError:
        raise ValueError(
            f"flux must be one of {sorted(FLUX_MODULES)}, got {name!r}"
        ) from None
    return getattr(importlib.import_module(module), cls)

#: proxy labels following the paper's profile (Figure 3): sc_proxy wraps
#: States, g_proxy wraps the flux component, amr_proxy wraps AMRMesh.
STATES_PROXY = "sc_proxy"
FLUX_PROXY = "g_proxy"
MESH_PROXY = "amr_proxy"
#: extension beyond the paper's three proxies: monitoring InviscidFlux's
#: RhsPort gives the call trace its caller/callee nesting, so the dual
#: graph (Figure 10) gets real invocation-weighted edges.
RHS_PROXY = "if_proxy"


@dataclass
class CaseStudyConfig:
    """Everything one case-study run needs."""

    params: DriverParams = field(default_factory=DriverParams)
    flux: str = "efm"
    instrument: bool = True
    nranks: int = 3
    seed: int | None = 0
    #: network calibrated so message passing is a significant fraction of
    #: the profile (the paper's commodity cluster spent ~25% of runtime in
    #: MPI_Waitsome; our Python compute is slower relative to the wire, so
    #: the modeled wire is made correspondingly slower — see EXPERIMENTS.md)
    network: NetworkModel = field(default_factory=lambda: NetworkModel(
        latency_us=3000.0, bandwidth_bytes_per_us=4.0, jitter_sigma=0.25))
    balancer: str = "knapsack"
    #: also proxy InviscidFlux's rhs port (call-path nesting for the dual)
    proxy_rhs: bool = True
    #: fault-injection plan (None runs fault-free)
    fault_plan: FaultPlan | None = None
    #: MPI/proxy retry-and-recovery policy (None keeps non-resilient runs)
    resilience: ResiliencePolicy | None = None
    #: periodic checkpointing of mesh + driver + Mastermind state
    checkpoint: CheckpointConfig | None = None
    #: resume from the newest complete checkpoint in ``checkpoint.directory``
    resume: bool = False
    #: wall-clock deadlock timeout handed to the simulated world
    timeout_s: float = 300.0
    #: span tracing + metrics (see repro.obs); None traces nothing
    observe: Any = None
    #: runtime MPI sanitizers (a repro.analysis SanitizerConfig); None
    #: checks nothing
    sanitize: Any = None
    #: communicator backend: "thread" (default, deterministic in-process)
    #: or "mp-shm" (one forked process per rank over shared-memory rings)
    backend: str = "thread"

    def __post_init__(self) -> None:
        # Resolved here, in the process that builds the config: a bad
        # name fails before launch, and the flux's module is loaded
        # before any rank starts, so forked ranks inherit it.
        flux_class(self.flux)


@dataclass
class RankHarvest:
    """Per-rank measurement payload pulled out of the rank thread."""

    #: the rank's Mastermind (records, model building)
    mastermind: Mastermind
    records: dict[tuple[str, str], Any]
    callpath_edges: dict[tuple[str, str], int]
    wiring_nodes: list[str]
    #: bit-exact hierarchy state at the end of the run (restart fidelity)
    mesh_state: dict | None = None
    #: per-step dt sizes actually taken by the driver
    dt_history: list[float] = field(default_factory=list)
    #: this rank's ResilienceStats counters
    resilience: dict[str, int] | None = None
    #: steps this rank checkpointed / bytes it wrote doing so
    checkpoint_steps: list[int] = field(default_factory=list)
    checkpoint_bytes: int = 0


def compose_case_study(fw: Framework, config: CaseStudyConfig) -> None:
    """Create and wire the full application inside one rank's framework."""
    fw.create("states", StatesComponent, batch=config.params.batch)
    fw.create("flux", flux_class(config.flux), batch=config.params.batch)
    fw.create("inviscid", InviscidFluxComponent)
    fw.create("rk2", RK2Component)
    mesh = fw.create("mesh", AMRMeshComponent, params=config.params,
                     balancer=config.balancer)
    driver = fw.create("driver", ShockDriver, params=config.params)
    fw.connect("inviscid", "states", "states", "states")
    fw.connect("inviscid", "flux", "flux", "flux")
    fw.connect("rk2", "mesh", "mesh", "mesh")
    fw.connect("rk2", "rhs", "inviscid", "rhs")
    fw.connect("driver", "mesh", "mesh", "mesh")
    fw.connect("driver", "integrator", "rk2", "integrator")
    mastermind = None
    if config.instrument:
        fw.create("tau", TauMeasurementComponent)
        mastermind = fw.create("mastermind", Mastermind)
        fw.connect("mastermind", "measurement", "tau", "measurement")
        insert_proxy(fw, "inviscid", "states", "mastermind", label=STATES_PROXY)
        insert_proxy(fw, "inviscid", "flux", "mastermind", label=FLUX_PROXY)
        if config.proxy_rhs:
            insert_proxy(fw, "rk2", "rhs", "mastermind", label=RHS_PROXY)

        def _mesh_params(args: tuple, kwargs: dict) -> dict:
            level = args[0] if args else kwargs.get("level", 0)
            h = mesh._hierarchy
            return {"level": int(level),
                    "decomp": h.regrid_count if h is not None else 0}

        insert_proxy(
            fw, "rk2", "mesh", "mastermind", label=MESH_PROXY,
            methods=["ghost_update", "sync_down"],
            extractors={"ghost_update": _mesh_params, "sync_down": _mesh_params},
        )
    _wire_resilience(fw, config, driver, mesh, mastermind)


def _wire_resilience(fw: Framework, config: CaseStudyConfig, driver: ShockDriver,
                     mesh: AMRMeshComponent, mastermind: Mastermind | None) -> None:
    """Attach crash, checkpoint and resume behavior to the driver's loop."""
    comm = fw.comm
    injector = comm.world.injector if comm is not None else None
    rank = comm.rank if comm is not None else 0
    nranks = comm.world.nranks if comm is not None else 1

    if injector is not None and injector.plan.kill_at_step is not None:
        def crash(step: int) -> None:
            if injector.crash_due(rank, step):
                injector.note(rank, "fault.crash", float(step))
                raise SimulatedCrash(f"rank {rank} killed before step {step}")
        driver.pre_step_hooks.append(crash)

    ckpt_cfg = config.checkpoint
    if ckpt_cfg is None or not ckpt_cfg.enabled:
        return
    ckpt = Checkpointer(ckpt_cfg, rank=rank, nranks=nranks, comm=comm,
                        injector=injector)
    # Parked on the driver so _harvest can report checkpoint overhead.
    driver.checkpointer = ckpt

    def save(step: int) -> None:
        if not ckpt.due(step):
            return
        state = {
            "mesh": hierarchy_state(mesh.hierarchy()),
            "dt_history": list(driver.dt_history),
            "next_step": step + 1,
            "mastermind": (mastermind.records_state()
                           if mastermind is not None else None),
        }
        ckpt.save(step, state)
    driver.post_step_hooks.append(save)

    if config.resume:
        step = latest_step(ckpt_cfg.directory)
        if step is None:
            raise FileNotFoundError(
                f"resume requested but no checkpoint manifest in "
                f"{ckpt_cfg.directory!r}"
            )
        state = load_rank_state(ckpt_cfg.directory, step, rank)
        driver.resume_state = state
        if mastermind is not None and state.get("mastermind") is not None:
            mastermind.restore_records(state["mastermind"])


def _harvest(fw: Framework) -> RankHarvest | None:
    try:
        mm: Mastermind = fw.component("mastermind")
    except KeyError:
        return None
    driver: ShockDriver = fw.component("driver")
    mesh: AMRMeshComponent = fw.component("mesh")
    comm = fw.comm
    resilience = None
    if comm is not None and comm.world.policy is not None:
        resilience = comm.world.resilience[comm.rank].as_dict()
    ckpt = getattr(driver, "checkpointer", None)
    return RankHarvest(
        mastermind=mm,
        records={rec.key: rec for rec in mm.all_records()},
        callpath_edges=mm.edge_counts(),
        wiring_nodes=fw.instance_names(),
        mesh_state=(hierarchy_state(mesh._hierarchy)
                    if mesh._hierarchy is not None else None),
        dt_history=list(driver.dt_history),
        resilience=resilience,
        checkpoint_steps=list(ckpt.saved_steps) if ckpt is not None else [],
        checkpoint_bytes=ckpt.bytes_written if ckpt is not None else 0,
    )


def run_case_study(config: CaseStudyConfig | None = None) -> ScmdResult:
    """Run the case study on ``config.nranks`` simulated processors.

    ``result.extras[rank]`` holds each rank's :class:`RankHarvest` when
    instrumentation is on.  With ``config.fault_plan`` set the run is
    subjected to the plan's faults; ``config.resilience`` turns on the MPI
    and proxy recovery machinery; ``config.checkpoint`` periodically saves
    restartable state and ``config.resume`` continues a killed run from the
    newest complete checkpoint (bitwise identical to an uninterrupted run).
    """
    config = config or CaseStudyConfig()
    return run_scmd(
        config.nranks,
        lambda fw: compose_case_study(fw, config),
        go_instance="driver",
        network=config.network,
        seed=config.seed,
        extract=_harvest,
        timeout_s=config.timeout_s,
        fault_plan=config.fault_plan,
        resilience=config.resilience,
        observe=config.observe,
        sanitize=config.sanitize,
        backend=config.backend,
    )
