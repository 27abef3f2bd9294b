"""Pluggable communicator backends for the simulated MPI layer.

The simulator originally hard-wired one execution model: P rank *threads*
sharing a :class:`~repro.mpi.world.SimWorld` inside one process.  That is
the right default — tests want determinism and cheap startup — but the
ranks share one interpreter: they run one at a time (handing a run
token over where they block, rather than fighting for the GIL
mid-kernel) on one core (the launcher's, so a hand-off never moves a
rank to another CPU), which caps the scaling study at a handful of
ranks.  This module factors the execution model out behind a
named-backend registry (the ``create_communicator(name, ...)`` pattern of
ChainerMN and friends):

* ``"thread"`` — the classic in-process thread cohort (default);
* ``"mp-shm"`` — rank *processes* exchanging payloads through
  ``multiprocessing.shared_memory`` ring buffers
  (:mod:`repro.mpi.mpshm`), for real-parallel scaling runs.

Every backend launches the same ``fn(comm, *args)`` on every rank and
returns per-rank results plus a *world view*: an object duck-typed like a
finished :class:`SimWorld` (``accounting``, ``obs``, ``resilience``,
``sanitizer``, ``injector``, ``nranks``, ``network``) so accounting,
tracing, sanitizer and fault-plan consumers work unchanged regardless of
where the ranks actually ran.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from repro.mpi.network import NetworkModel
from repro.util.validation import check_positive

#: backend names accepted by :func:`create_backend` (import-cheap constant;
#: the heavyweight modules load lazily on first use)
BACKEND_NAMES = ("thread", "mp-shm")


@dataclass(frozen=True)
class JobSpec:
    """What one simulated MPI job is: the single declaration of a run's
    options inside :mod:`repro.mpi` (DESIGN section 18).

    :class:`~repro.mpi.runner.ParallelRunner` builds one from its keyword
    arguments, every backend launches from it, the world of a launch is
    constructed from it (a process backend rebuilds per-rank state from it
    on the far side of a fork) and :class:`WorldView` reads it back.  A
    new launch option is one field here and nothing else in the package.
    """

    nranks: int
    #: ``None`` is replaced by the default :class:`NetworkModel` on the way in
    network: NetworkModel = None  # type: ignore[assignment]
    seed: int | None = 0
    #: cap on every blocking MPI operation, from its entry (seconds)
    timeout_s: float = 120.0
    #: optional FaultInjector / ResiliencePolicy attached to the world
    injector: Any = None
    policy: Any = None
    #: optional ObsConfig enabling per-rank span tracing + metrics
    obs_config: Any = None
    #: optional SanitizerConfig enabling runtime MPI correctness checks
    sanitize: Any = None

    def __post_init__(self) -> None:
        check_positive("nranks", self.nranks)
        check_positive("timeout_s", self.timeout_s)
        if self.network is None:
            object.__setattr__(self, "network", NetworkModel())


class RankFailure(RuntimeError):
    """Raised by a launch when any rank raised or did not terminate.

    Carries per-rank tracebacks; the message includes the first failure so
    pytest output points straight at the root cause.
    """

    def __init__(self, failures: dict[int, str]) -> None:
        self.failures = failures
        first_rank = min(failures)
        super().__init__(
            f"{len(failures)} rank(s) failed; first failure on rank {first_rank}:\n"
            + failures[first_rank]
        )


#: seconds past ``timeout_s`` the thread launcher waits for its ranks to
#: unwind: every blocking MPI operation is capped by ``timeout_s`` from its
#: entry, so a rank still out after the grace is stuck outside MPI
THREAD_GRACE_S = 10.0


def seconds_left(deadline: float) -> float:
    """What is left of a launcher's one deadline (``time.monotonic()``
    based): each join or poll waits this long, so P stuck ranks hold the
    launcher for one deadline, not P of them."""
    return max(0.0, deadline - time.monotonic())


def raise_rank_failures(failures: dict[int, str], stuck: list[int]) -> None:
    """The one epilogue of a launch, whatever ran the ranks.

    ``failures`` maps a rank to its traceback, ``stuck`` lists the ranks
    that had not finished by the launcher's deadline; raises
    :class:`RankFailure` naming all of them, minus the secondary failures
    a job abort induced in ranks that were merely woken by it when a
    primary cause exists.
    """
    failures = dict(failures)  # a rank woken by the abort may still add its own
    for r in stuck:
        failures.setdefault(r, "rank did not terminate by the launcher's "
                               "deadline (stuck outside MPI?)")
    if failures:
        primary = {r: tb for r, tb in failures.items()
                   if "simulated MPI job aborted" not in tb}
        raise RankFailure(primary or failures)


def launcher_cpu() -> int:
    """The CPU the calling thread is running on now, if its mask allows it.

    Read from field 39 (``processor``) of ``/proc/thread-self/stat``,
    counted after the last ``)`` so a thread name holding spaces or
    parentheses cannot shift it; where that read fails, or names a CPU
    outside the caller's mask, the lowest CPU of the mask.
    """
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/thread-self/stat") as f:
            cpu = int(f.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


class BackendRun:
    """Outcome of one backend launch: per-rank results + the world view."""

    __slots__ = ("results", "world")

    def __init__(self, results: list[Any], world: Any) -> None:
        self.results = results
        self.world = world


class CommBackend(ABC):
    """One rank-execution strategy.

    Subclasses are stateless launchers: all per-job state lives in the
    :class:`JobSpec` and the world (view) each launch returns.
    """

    #: registry key; subclasses set this
    name: ClassVar[str] = ""

    @abstractmethod
    def launch(self, spec: JobSpec, fn: Callable[..., Any],
               args: tuple, kwargs: dict) -> BackendRun:
        """Run ``fn(comm, *args, **kwargs)`` on every rank of ``spec``."""


class ThreadBackend(CommBackend):
    """P rank threads in one process sharing one :class:`SimWorld`.

    Deterministic, cheap to start, debuggable with one pdb — the default
    and the reference semantics every other backend must reproduce.

    The world of a launch carries one *run token* (a plain lock): a rank
    thread holds it while it executes and releases it only where it blocks
    (:meth:`SimWorld.off_token`), so a kernel timer holds kernel time, not
    GIL hand-offs (DESIGN section 17).

    Since only the token holder runs, the cohort needs one core, not one
    each: every rank thread binds itself to the CPU the launching thread
    is on (:func:`launcher_cpu`) before it first queues for the token, so
    a hand-off never migrates a rank to an idle core with cold caches
    (MPI's ``--bind-to core``).  The launcher's own mask is left alone.
    A thread a rank starts inherits that core too; it shares the GIL
    with a cohort that runs one rank at a time, so a second core would
    buy it little.  Where
    ``os.sched_setaffinity`` does not exist the ranks run unbound.
    """

    name = "thread"

    def launch(self, spec: JobSpec, fn: Callable[..., Any],
               args: tuple, kwargs: dict) -> BackendRun:
        import threading
        import traceback

        from repro.mpi.comm import SimComm
        from repro.mpi.world import SimWorld

        world = SimWorld(spec)
        token = world.run_token = threading.Lock()
        results: list[Any] = [None] * spec.nranks
        failures: dict[int, str] = {}
        cpu = launcher_cpu() if hasattr(os, "sched_setaffinity") else None

        def target(rank: int) -> None:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            comm = SimComm(world, rank)
            with token:
                try:
                    results[rank] = fn(comm, *args, **kwargs)
                    world.discard_trailing_duplicates(rank)
                except BaseException:  # ra: noqa[RA005] — rank isolation barrier
                    failures[rank] = traceback.format_exc()
                    world.abort(f"rank {rank} raised")

        threads = [
            threading.Thread(target=target, args=(r,),
                             name=f"simmpi-rank-{r}", daemon=True)
            for r in range(spec.nranks)
        ]
        deadline = time.monotonic() + spec.timeout_s + THREAD_GRACE_S
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds_left(deadline))
        stuck = [r for r, t in enumerate(threads) if t.is_alive()]
        if stuck:
            world.abort(f"join timeout: ranks {stuck}")
        if stuck or failures:
            # The black boxes first: once RankFailure unwinds the launcher
            # the world and its flight recorders are unreachable.
            from repro.obs.flightrec import dump_flight_recorders

            dump_flight_recorders(world.obs,
                                  world.abort_reason or "rank failure",
                                  world=world)
            raise_rank_failures(failures, stuck)
        if world.sanitizer is not None:
            # End-of-job hygiene: leaked requests / unconsumed envelopes.
            world.sanitizer.finalize(world)
        return BackendRun(results, world)


# --------------------------------------------------------------- world view
class WorldView:
    """Parent-side read handle over a finished multi-process job.

    Process backends cannot hand back their (per-process, shared-memory
    laced) worlds, so they ship each rank's durable state — accounting
    ledger, observability bundle, resilience stats, sanitizer findings,
    fault-event list — through the result pipe and the parent
    assembles this view.  It exposes exactly the attributes post-run
    consumers read off a :class:`SimWorld`; launch-time machinery
    (mailboxes, condition variables, the run token) is intentionally
    absent.
    """

    #: the one process backend's name (a run record's identity)
    backend = "mp-shm"

    def __init__(
        self,
        spec: JobSpec,
        accounting: list,
        obs: list | None,
        resilience: list,
        sanitizer: Any,
    ) -> None:
        self.nranks = spec.nranks
        self.seed = spec.seed
        self.network = spec.network
        self.timeout_s = spec.timeout_s
        self.injector = spec.injector
        self.policy = spec.policy
        self.accounting = accounting
        self.obs = obs
        self.resilience = resilience
        self.sanitizer = sanitizer

    def leftover_envelopes(self, rank: int) -> list:
        """Leftovers were checked worker-side at finalize; a view of a
        finished job has no in-flight envelopes by construction."""
        return []


# ----------------------------------------------------------------- registry
def create_backend(name: str = "thread") -> CommBackend:
    """Instantiate a communicator backend by name.

    Heavy backends import lazily so ``thread``-only users never pay for
    (or require) multiprocessing machinery.
    """
    if name == "thread":
        return ThreadBackend()
    if name == "mp-shm":
        from repro.mpi.mpshm import MpShmBackend

        return MpShmBackend()
    raise ValueError(
        f"unknown communicator backend {name!r}; expected one of {BACKEND_NAMES}")
