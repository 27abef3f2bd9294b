"""SCMD job launcher: run the same function on P simulated ranks.

This is the simulator's ``mpiexec -n P``.  The CCA layer builds on it to
realize the paper's SCMD (Single Component Multiple Data) model: identical
frameworks containing the same components are instantiated on all P
processors, with MPI between the cohort instances.

Where the ranks actually execute is pluggable
(:mod:`repro.mpi.backend`): ``backend="thread"`` (default) runs them as
threads in this process, ``backend="mp-shm"`` as real processes wired
through shared-memory rings.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mpi.backend import JobSpec, create_backend
from repro.mpi.network import NetworkModel
from repro.util.validation import check_positive


class RankFailure(RuntimeError):
    """Raised by :meth:`ParallelRunner.run` when any rank raised.

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


class ParallelRunner:
    """Run ``fn(comm)`` concurrently on ``nranks`` simulated ranks.

    Example
    -------
    >>> runner = ParallelRunner(3)
    >>> runner.run(lambda comm: comm.allreduce(comm.rank))
    [3, 3, 3]
    """

    def __init__(
        self,
        nranks: int,
        network: NetworkModel | None = None,
        seed: int | None = 0,
        timeout_s: float = 120.0,
        injector=None,
        policy=None,
        obs_config=None,
        sanitize=None,
        backend: str = "thread",
        collectives: str | None = None,
    ) -> None:
        check_positive("nranks", nranks)
        self.nranks = int(nranks)
        self.network = network or NetworkModel()
        self.seed = seed
        self.timeout_s = float(timeout_s)
        #: optional FaultInjector / ResiliencePolicy attached to each world
        self.injector = injector
        self.policy = policy
        #: optional ObsConfig enabling per-rank span tracing + metrics
        self.obs_config = obs_config
        #: optional SanitizerConfig enabling runtime MPI correctness checks
        self.sanitize = sanitize
        #: communicator backend name ("thread", "mp-shm")
        self.backend = backend
        #: collective-algorithm family (None, "flat", "hier")
        self.collectives = collectives
        # Fail fast on unknown backend names (before any launch).
        create_backend(backend)
        #: the world (or WorldView) of the most recent ``run``
        self.last_world = None

    def _spec(self) -> JobSpec:
        return JobSpec(
            nranks=self.nranks, network=self.network, seed=self.seed,
            timeout_s=self.timeout_s, injector=self.injector,
            policy=self.policy, obs_config=self.obs_config,
            sanitize=self.sanitize, collectives=self.collectives)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank; return results by rank.

        If any rank raises, the world is aborted (waking blocked peers) and
        a :class:`RankFailure` is raised after all ranks wind down.
        """
        out = create_backend(self.backend).launch(self._spec(), fn, args, kwargs)
        self.last_world = out.world
        return out.results


def create_world(backend: str = "thread", nranks: int = 1,
                 **kwargs: Any) -> ParallelRunner:
    """Named-communicator factory (ChainerMN-style).

    ``create_world("mp-shm", nranks=16).run(fn)`` is the one-line spelling
    of "launch fn on 16 shared-memory rank processes".  All
    :class:`ParallelRunner` keyword options pass through.
    """
    return ParallelRunner(nranks, backend=backend, **kwargs)
