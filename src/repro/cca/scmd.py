"""SCMD (Single Component Multiple Data) launcher.

Paper Section 3.1: "Identical frameworks, containing the same components,
are instantiated on all P processors.  Parallelism is implemented by
running the same component on all P processors and using MPI to communicate
between them.  P instances of a given component form a cohort."

:func:`run_scmd` realizes this over the thread-backed MPI simulator: each
rank builds a framework via the caller's ``compose`` function, then the
named driver component's GoPort is invoked inside a top-level ``main``
timer (the 100% row of the paper's Figure 3 profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cca.framework import Framework
from repro.cca.repository import ComponentRepository
from repro.mpi.network import NetworkModel
from repro.mpi.runner import ParallelRunner
from repro.mpi.world import SimWorld
from repro.tau.hardware import CacheModel
from repro.tau.profiler import Profiler
from repro.tau.timer import TimerStats

#: the top-level timer name, echoing Figure 3's ``int main(int, char **)``
MAIN_TIMER = "int main(int, char **)"


@dataclass
class ScmdResult:
    """Everything a run produced, per rank."""

    nranks: int
    #: per-rank values returned by the driver's go() (or compose result)
    results: list[Any]
    #: per-rank cumulative timer snapshots (feed to tau.function_summary)
    timer_snapshots: list[dict[str, TimerStats]]
    #: per-rank atomic event summaries
    event_summaries: list[dict[str, dict[str, float]]]
    #: per-rank hardware counter values
    counter_values: list[dict[str, int]]
    #: the simulated world — a :class:`SimWorld` (thread backend) or a
    #: :class:`~repro.mpi.backend.WorldView` (process backends); either
    #: way, per-rank MPI accounting/obs/sanitizer findings live here
    world: SimWorld | Any | None = None
    #: optional per-rank extra payloads filled by compose/go
    extras: list[Any] = field(default_factory=list)


def run_scmd(
    nranks: int,
    compose: Callable[[Framework], Any],
    go_instance: str | None = None,
    *,
    network: NetworkModel | None = None,
    seed: int | None = 0,
    cache: CacheModel | None = None,
    repository: ComponentRepository | None = None,
    timeout_s: float = 300.0,
    extract: Callable[[Framework], Any] | None = None,
    fault_plan=None,
    resilience=None,
    observe=None,
    sanitize=None,
    backend: str = "thread",
) -> ScmdResult:
    """Run a component application on ``nranks`` simulated processors.

    Parameters
    ----------
    compose:
        Called once per rank with that rank's :class:`Framework`; it
        creates and connects components (the paper's assembly script/GUI).
        Its return value is used as the rank result when ``go_instance`` is
        None.
    go_instance:
        Instance name of the driver component providing a ``go`` port; when
        given, its ``go()`` return value is the rank result.
    extract:
        Called with each rank's framework after ``go`` completes; its
        return value lands in ``ScmdResult.extras[rank]``.  Use it to pull
        measurement records (e.g. the Mastermind's) out of rank threads.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` to inject (a shared
        :class:`~repro.faults.injector.FaultInjector` is built and attached
        to the world); None runs fault-free.
    resilience:
        A :class:`~repro.faults.policy.ResiliencePolicy` enabling bounded
        retry/recovery in the MPI layer and the proxies; None keeps the
        non-resilient semantics.
    observe:
        An :class:`~repro.obs.runtime.ObsConfig` turning on span tracing
        and metrics: each rank gets a span tracer (every TAU timer
        bracketing — including the Mastermind's proxied invocations — and
        every MPI operation becomes a span, with matched sends/recvs and
        collectives linked as causal cross-rank edges) plus a metrics
        registry.  Collect results from ``ScmdResult.world.obs`` via
        :func:`repro.obs.collect`.  None (default) traces nothing.
    sanitize:
        A :class:`~repro.analysis.sanitize.SanitizerConfig` enabling the
        runtime MPI sanitizers (collective ordering, p2p hygiene, deadlock
        and ghost-race detection); findings land on
        ``ScmdResult.world.sanitizer.findings``.  None (default) checks
        nothing.
    backend:
        Communicator backend name (:mod:`repro.mpi.backend`): ``"thread"``
        (default) runs ranks as threads, ``"mp-shm"`` as real processes
        over shared-memory rings — same modeled results, real parallelism.
    """
    injector = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(fault_plan, nranks)
    runner = ParallelRunner(nranks, network=network, seed=seed,
                            timeout_s=timeout_s, injector=injector,
                            policy=resilience, obs_config=observe,
                            sanitize=sanitize, backend=backend)

    def rank_main(comm) -> tuple[Any, dict, dict, dict, Any]:
        obs = comm.obs
        profiler = Profiler(rank=comm.rank, cache=cache,
                            tracer=obs.tracer if obs is not None else None)
        fw = Framework(rank=comm.rank, comm=comm, profiler=profiler,
                       repository=repository, obs=obs)
        with profiler.timer(MAIN_TIMER):
            composed = compose(fw)
            if go_instance is not None:
                result = fw.go(go_instance)
            else:
                result = composed
        extra = extract(fw) if extract is not None else None
        return (
            result,
            profiler.timers_snapshot(),
            profiler.events.summaries(),
            profiler.counters.read(),
            extra,
        )

    outs = runner.run(rank_main)
    return ScmdResult(
        nranks=nranks,
        results=[o[0] for o in outs],
        timer_snapshots=[o[1] for o in outs],
        event_summaries=[o[2] for o in outs],
        counter_values=[o[3] for o in outs],
        world=runner.last_world,
        extras=[o[4] for o in outs],
    )
