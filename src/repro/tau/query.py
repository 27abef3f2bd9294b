"""The query interface's snapshot and the per-invocation measurement.

Paper Section 4.3: "TAU measurements are made cumulatively, so in order to
obtain the measurements for a single invocation, measurements must be made
prior to the invocation and again after the invocation.  ...  The
measurements for the single invocation are determined by the difference."

:class:`MeasurementSnapshot` reads the three cumulative quantities: wall
time on the profiler's clock, MPI time (the rank's ledger total, the
summation of all MPI routines) and the hardware counters.  The
Mastermind does not difference two of them per call: the
stopped TAU frame already holds that difference (see
:mod:`repro.perf.mastermind`), and :class:`InvocationMeasurement` is built
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tau.profiler import MPI_GROUP, Profiler


@dataclass(frozen=True)
class MeasurementSnapshot:
    """Point-in-time cumulative readings from a rank's profiler."""

    wall_us: float
    mpi_us: float
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def capture(cls, profiler: Profiler) -> "MeasurementSnapshot":
        """Read the current cumulative values (the TAU query interface),
        on the profiler's own clock, the one its frames read."""
        return cls(
            wall_us=profiler.clock(),
            mpi_us=profiler.group_total_us(MPI_GROUP),
            counters=profiler.counters.read(),
        )


@dataclass(frozen=True)
class InvocationMeasurement:
    """Per-invocation measurement (paper Section 3.2's minimal data set).

    ``compute_us`` is "the difference between the above" — total execution
    time minus message-passing time, the cache-sensitive quantity.
    """

    wall_us: float
    mpi_us: float
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def compute_us(self) -> float:
        """Computation time: wall minus MPI (floored at 0 — the modeled MPI
        cost can exceed the physical wall time in the simulator)."""
        return max(0.0, self.wall_us - self.mpi_us)
