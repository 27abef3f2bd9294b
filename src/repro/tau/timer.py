"""Timer statistics records.

TAU profiling semantics (paper Section 4.1 / Figure 3):

* **inclusive** time — total time spent in a region including all nested
  instrumented regions and the modeled MPI time spent inside it;
* **exclusive** time — the region's clock interval minus its nested
  regions' clock intervals;
* **calls** — number of start/stop bracketings (for an MPI routine, the
  ledger's call count).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.span import Span


@dataclass
class TimerStats:
    """Cumulative statistics for one named timer."""

    name: str
    group: str = "default"
    inclusive_us: float = 0.0
    exclusive_us: float = 0.0
    calls: int = 0

    @property
    def usec_per_call(self) -> float:
        """Mean inclusive microseconds per call (0 when never called)."""
        return self.inclusive_us / self.calls if self.calls else 0.0

    def copy(self) -> "TimerStats":
        return TimerStats(self.name, self.group, self.inclusive_us, self.exclusive_us, self.calls)

    def add(self, other: "TimerStats") -> None:
        """Accumulate another timer's stats (used for cross-rank merging)."""
        if other.name != self.name:
            raise ValueError(f"cannot merge timer {other.name!r} into {self.name!r}")
        self.inclusive_us += other.inclusive_us
        self.exclusive_us += other.exclusive_us
        self.calls += other.calls


@dataclass(slots=True)
class Frame:
    """One started timer; ``Profiler.stop`` hands it back stopped.

    A stopped frame is the interval of one bracketing: its clock start and
    end, the MPI time the rank's ledger gained inside it and the hardware
    counters read at either end.  The Mastermind builds an invocation
    record from it.
    """

    name: str
    group: str
    start_us: float
    #: hardware counter values read at start
    start_counters: dict[str, int]
    #: the MPI ledger's running total read at start
    start_mpi_us: float = 0.0
    #: the enclosing frame (None at the bottom of the stack)
    parent: Frame | None = None
    #: clock reading at stop, and the counter values read then
    end_us: float = 0.0
    end_counters: dict[str, int] = field(default_factory=dict)
    #: clock intervals of the nearest live frames nested in it
    child_us: float = 0.0
    #: the MPI ledger's total at stop minus ``start_mpi_us``
    charged_us: float = 0.0
    reentrant: bool = False
    #: started while its group was disabled: stop pops it, records nothing
    suppressed: bool = False
    #: the span opened for this frame (None when tracing is off or the
    #: span was sampled out)
    span: Span | None = None
