"""Timer statistics records.

TAU profiling semantics (paper Section 4.1 / Figure 3):

* **inclusive** time — total time spent in a region including all nested
  instrumented regions and the modeled MPI time spent inside it;
* **exclusive** time — the region's clock interval minus its nested
  regions' clock intervals;
* **calls** — number of start/stop bracketings (for an MPI routine, the
  ledger's call count).

One bracketing is one :class:`Frame`, which a tracing profiler's tracer
keeps as its span.
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


@dataclass(slots=True, eq=False, kw_only=True)
class Frame(Span):
    """One started timer, and its span; ``Profiler.stop`` hands it back
    stopped.

    A stopped frame is the interval of one bracketing: its clock start and
    end (``t_start_us``/``t_end_us``), the MPI time the rank's ledger
    gained inside it and the hardware counters read at either end.  The
    Mastermind builds an invocation record from it, and a tracing
    profiler's tracer keeps the very same object as a compute span.
    ``parent`` is the enclosing TAU frame, kept or not (the Mastermind's
    caller walk follows it); ``parent_id`` is the enclosing *kept* span.
    """

    group: str
    #: the enclosing frame (None at the bottom of the stack)
    parent: Frame | None
    #: the MPI ledger's running total read at start
    start_mpi_us: float
    #: hardware counter values read at start, and at stop
    start_counters: dict[str, int]
    end_counters: dict[str, int] = field(default_factory=dict)
    #: clock intervals of the nearest live frames nested in it
    child_us: float = 0.0
    #: the MPI ledger's total at stop minus ``start_mpi_us``
    charged_us: float = 0.0
    reentrant: bool = False
    #: started while its group was disabled: stop pops it, records nothing
    suppressed: bool = False
