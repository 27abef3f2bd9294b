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

from repro.mpi.backend import JobSpec, RankFailure, create_backend

__all__ = ["ParallelRunner", "RankFailure", "create_world"]


class ParallelRunner:
    """Run ``fn(comm)`` concurrently on ``nranks`` simulated ranks.

    ``job`` are the fields of :class:`~repro.mpi.backend.JobSpec`, the one
    place a run's options are declared; an unknown keyword is a
    ``TypeError`` naming it.

    Example
    -------
    >>> runner = ParallelRunner(3)
    >>> runner.run(lambda comm: comm.allreduce(comm.rank))
    [3, 3, 3]
    """

    def __init__(self, nranks: int, backend: str = "thread",
                 **job: Any) -> None:
        self.spec = JobSpec(nranks, **job)
        #: communicator backend name ("thread", "mp-shm")
        self.backend = backend
        # Fail fast on unknown backend names (before any launch).
        create_backend(backend)
        #: the world (or WorldView) of the most recent ``run``
        self.last_world = None

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank; return results by rank.

        If any rank raises, the world is aborted (waking blocked peers) and
        a :class:`RankFailure` is raised after all ranks wind down.
        """
        out = create_backend(self.backend).launch(self.spec, fn, args, kwargs)
        self.last_world = out.world
        return out.results


def create_world(backend: str = "thread", nranks: int = 1,
                 **kwargs: Any) -> ParallelRunner:
    """Named-communicator factory (ChainerMN-style).

    ``create_world("mp-shm", nranks=16).run(fn)`` is the one-line spelling
    of "launch fn on 16 shared-memory rank processes".  The keywords are
    :class:`~repro.mpi.backend.JobSpec`'s fields.
    """
    return ParallelRunner(nranks, backend=backend, **kwargs)
