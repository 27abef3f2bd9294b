"""Pluggable communicator backends for the simulated MPI layer.

The simulator originally hard-wired one execution model: P rank *threads*
sharing a :class:`~repro.mpi.world.SimWorld` inside one process.  That is
the right default — tests want determinism and cheap startup — but the
ranks share one interpreter: they run one at a time (handing a run
token over where they block, rather than fighting for the GIL
mid-kernel), which caps the scaling study at a handful of ranks.  This
module factors the execution model out behind a
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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from repro.mpi.network import NetworkModel

#: backend names accepted by :func:`create_backend` (import-cheap constant;
#: the heavyweight modules load lazily on first use)
BACKEND_NAMES = ("thread", "mp-shm")


@dataclass(frozen=True)
class JobSpec:
    """Everything a backend needs to launch one simulated MPI job.

    This is the constructor signature of the old thread-only
    :class:`~repro.mpi.runner.ParallelRunner`, lifted into a value object
    so any backend can consume it (and a process backend can rebuild
    per-rank state from it on the far side of a fork).
    """

    nranks: int
    network: NetworkModel = field(default_factory=NetworkModel)
    seed: int | None = 0
    timeout_s: float = 120.0
    injector: Any = None
    policy: Any = None
    obs_config: Any = None
    sanitize: Any = None
    collectives: str | None = None


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
    """

    name = "thread"

    def launch(self, spec: JobSpec, fn: Callable[..., Any],
               args: tuple, kwargs: dict) -> BackendRun:
        import threading
        import traceback

        from repro.mpi.comm import SimComm
        from repro.mpi.runner import RankFailure
        from repro.mpi.world import SimWorld

        world = SimWorld(spec.nranks, network=spec.network, seed=spec.seed,
                         timeout_s=spec.timeout_s, injector=spec.injector,
                         policy=spec.policy, obs_config=spec.obs_config,
                         sanitize=spec.sanitize, collectives=spec.collectives)
        token = world.run_token = threading.Lock()
        results: list[Any] = [None] * spec.nranks
        failures: dict[int, str] = {}

        def target(rank: int) -> None:
            comm = SimComm(world, rank)
            with token:
                try:
                    results[rank] = fn(comm, *args, **kwargs)
                except BaseException:  # ra: noqa[RA005] — rank isolation barrier
                    failures[rank] = traceback.format_exc()
                    world.abort(f"rank {rank} raised")

        threads = [
            threading.Thread(target=target, args=(r,),
                             name=f"simmpi-rank-{r}", daemon=True)
            for r in range(spec.nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=spec.timeout_s + 10.0)
        alive = [t.name for t in threads if t.is_alive()]
        if alive:
            world.abort("join timeout")
            _dump_black_boxes(world, f"join timeout: {alive}")
            raise RankFailure({-1: f"rank threads did not terminate: {alive}"})
        if failures:
            # Drop secondary abort-induced failures when a primary cause exists.
            primary = {
                r: tb for r, tb in failures.items()
                if "simulated MPI job aborted" not in tb
            }
            _dump_black_boxes(world, world.abort_reason or "rank failure")
            raise RankFailure(primary or failures)
        if world.sanitizer is not None:
            # End-of-job hygiene: leaked requests / unconsumed envelopes.
            world.sanitizer.finalize(world)
        return BackendRun(results, world)


def _dump_black_boxes(world: Any, reason: str) -> None:
    """Flush flight recorders on the failure path (no-op when off).

    The dump must happen *before* :class:`RankFailure` unwinds the
    launcher — after that the world (and its recorders) is unreachable.
    """
    from repro.obs.flightrec import dump_flight_recorders

    dump_flight_recorders(getattr(world, "obs", None), reason)


# --------------------------------------------------------------- world view
class SanitizerView:
    """Merged sanitizer findings from per-rank worker sanitizers.

    Read-side compatible with :class:`~repro.analysis.sanitize.Sanitizer`
    (``findings`` / ``findings_by_kind`` / ``config``).
    """

    def __init__(self, config: Any, findings: list) -> None:
        self.config = config
        self.findings = findings

    def findings_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out


class WorldView:
    """Parent-side read handle over a finished multi-process job.

    Process backends cannot hand back their (per-process, shared-memory
    laced) worlds, so they ship each rank's durable state — accounting
    ledger, observability bundle, resilience stats, sanitizer findings,
    injected-fault timeline — through the result pipe and the parent
    assembles this view.  It exposes exactly the attributes post-run
    consumers read off a :class:`SimWorld`; launch-time machinery
    (mailboxes, rendezvous slots, condition variables) is intentionally
    absent.
    """

    def __init__(
        self,
        spec: JobSpec,
        accounting: list,
        obs: list | None,
        resilience: list,
        sanitizer: SanitizerView | None,
        injector: Any = None,
    ) -> None:
        self.nranks = spec.nranks
        self.network = spec.network
        self.collectives = spec.collectives
        self.timeout_s = spec.timeout_s
        self.policy = spec.policy
        self.accounting = accounting
        self.obs = obs
        self.resilience = resilience
        self.sanitizer = sanitizer
        self.injector = injector

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
