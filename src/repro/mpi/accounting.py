"""Per-routine accumulation of simulated MPI time: the rank's one store.

The paper's Mastermind derives a method's message-passing cost as "the
summation of the times of all the MPI routines" between two queries of the
TAU component.  :class:`MPIAccounting` is that ledger: every simulated MPI
call records its modeled cost under its routine name (``MPI_Isend``,
``MPI_Waitsome``, ...), and :meth:`total_us` gives the summation.  It is
the only place MPI time is written; TAU's ``MPI`` group rows and each
timer frame's MPI time are reads of it (:mod:`repro.tau.profiler`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable


@dataclass
class RoutineStats:
    """Cumulative cost and call count for one MPI routine."""

    total_us: float = 0.0
    calls: int = 0


class MPIAccounting:
    """Thread-safe per-routine MPI time ledger for a single rank.

    Each rank owns one instance (ranks are threads, but proxies/TAU on the
    same rank may read while the comm writes, so a lock guards updates).
    Next to the rows it keeps their running sum, so :meth:`total_us` is
    one read.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[str, RoutineStats] = {}
        self._total_us = 0.0

    def __getstate__(self) -> dict:
        """Pickle the ledger contents only (the lock is process-local), so
        a worker process can ship its finished ledger back to the
        launcher."""
        with self._lock:
            return {"stats": {k: (v.total_us, v.calls)
                              for k, v in self._stats.items()},
                    "total_us": self._total_us}

    def __setstate__(self, state: dict) -> None:
        self._lock = threading.Lock()
        self._stats = {k: RoutineStats(total_us=t, calls=c)
                       for k, (t, c) in state["stats"].items()}
        self._total_us = state["total_us"]

    def charger(self, routine: str) -> Callable[[float], None]:
        """``charge(cost_us)`` for one routine, its ledger row resolved.

        What a communicator keeps per routine it calls, so a charge does
        not look the row up (or build a spare one) each time.
        """
        with self._lock:
            st = self._stats.setdefault(routine, RoutineStats())
        lock = self._lock

        def charge(cost_us: float) -> None:
            if cost_us < 0:
                raise ValueError(f"negative MPI cost {cost_us} for {routine}")
            with lock:
                st.total_us += cost_us
                st.calls += 1
                self._total_us += cost_us

        return charge

    def record(self, routine: str, cost_us: float) -> None:
        """Charge ``cost_us`` to ``routine`` (one call)."""
        self.charger(routine)(cost_us)

    def total_us(self) -> float:
        """Summation of the times of all MPI routines (paper's 'MPI time').

        One attribute read: a reader on another thread sees the total
        from before or after a concurrent charge, never a torn value.
        """
        return self._total_us

    def routine_totals(self) -> dict[str, RoutineStats]:
        """Snapshot copy of per-routine stats."""
        with self._lock:
            return {k: RoutineStats(v.total_us, v.calls) for k, v in self._stats.items()}

    def calls(self, routine: str) -> int:
        """Number of recorded calls to ``routine`` (0 if never called)."""
        with self._lock:
            st = self._stats.get(routine)
            return st.calls if st else 0
