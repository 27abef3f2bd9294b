"""The per-rank profiler: timers, groups, control, and its text profile.

One :class:`Profiler` instance lives on each simulated rank (ranks are
threads; the profiler is used only from its own rank thread, so no locking
is required on the hot path).

``start``/``stop`` (or the :meth:`timer` context manager) bracket a code
region and measure **wall-clock** time, as TAU does.  MPI time is not
written here: the profiler reads the rank's
:class:`~repro.mpi.accounting.MPIAccounting` ledger, which the TAU
component binds to :attr:`Profiler.ledger`.  The ``MPI`` group's rows are
the ledger's per-routine rows, and a frame's MPI time is the ledger total
at ``stop`` minus the total at ``start`` (the paper's cumulative
difference).  That modeled time extends the frame's inclusive time; its
exclusive time is its clock interval minus its children's (Figure 3
semantics).  An unbound profiler sees no MPI time.  Each boundary reads
the clock once; with a tracer, the frame itself is the traced span.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.obs.span import CAT_COMPUTE, UNKEPT, SpanTracer
from repro.tau.events import EventRegistry
from repro.tau.hardware import CacheModel, HardwareCounters
from repro.tau.timer import Frame, TimerStats
from repro.util.timebase import now_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.accounting import MPIAccounting

MPI_GROUP = "MPI"


class Profiler:
    """Timing + events + hardware counters for one rank.

    Pass a :class:`~repro.obs.span.SpanTracer` to additionally record the
    timeline (TAU's tracing option): every live bracketing's frame is
    opened and closed on it as a compute-category span (subject to the
    tracer's 1-in-N sampling, decided at start), so proxied component
    invocations are traced for free via the Mastermind's existing timer
    path.  Profiling aggregates are always collected.
    """

    def __init__(
        self,
        rank: int = 0,
        cache: CacheModel | None = None,
        clock: Callable[[], float] = now_us,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.rank = int(rank)
        #: the clock its frames and its query snapshots read
        self.clock = clock
        self._timers: dict[str, TimerStats] = {}
        #: innermost running frame; each links to its enclosing one
        self._top: Frame | None = None
        self._disabled_groups: set[str] = set()
        self.events = EventRegistry()
        self.counters = HardwareCounters(cache)
        self.tracer = tracer
        #: the rank's MPI ledger, bound by the TAU component (None: the
        #: profile has no MPI rows and frames see no MPI time)
        self.ledger: MPIAccounting | None = None

    # ------------------------------------------------------------ timers
    def _get_timer(self, name: str, group: str) -> TimerStats:
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = TimerStats(name=name, group=group)
        return t

    def group_enabled(self, group: str) -> bool:
        return group not in self._disabled_groups

    def enable_group(self, group: str) -> None:
        """Control interface: re-enable all timers of ``group``."""
        self._disabled_groups.discard(group)

    def disable_group(self, group: str) -> None:
        """Control interface: suppress all timers of ``group`` at runtime.

        The ``MPI`` group is the ledger's and cannot be switched off.
        """
        if group == MPI_GROUP:
            raise ValueError("the MPI group is read from the rank's ledger "
                             "and cannot be disabled")
        self._disabled_groups.add(group)

    def _mpi_us(self) -> float:
        """The ledger's running MPI total (0 when no ledger is bound)."""
        return self.ledger.total_us() if self.ledger is not None else 0.0

    def start(self, name: str, group: str = "default") -> None:
        """Start (push) the named timer.

        Whether the bracketing is live is decided once, here: a frame is
        always pushed, and marked suppressed when the group is disabled,
        so the matching ``stop`` pops the same frame whatever the control
        interface did to the group in between.  A suppressed frame still
        reads the clock, the counters and the MPI ledger, so its interval
        is whole.
        """
        self._get_timer(name, group)
        suppressed = not self.group_enabled(group)
        reentrant = not suppressed and any(
            f.name == name and not f.suppressed for f in self._frames())
        self._top = frame = Frame(
            UNKEPT, None, self.rank, name, CAT_COMPUTE, 0.0, group=group,
            parent=self._top, start_counters=self.counters.read(),
            start_mpi_us=self._mpi_us(), reentrant=reentrant,
            suppressed=suppressed)
        if self.tracer is not None and not suppressed:
            # Sampled when it starts, so a kept span never names a parent
            # the tracer dropped.
            self.tracer.open(frame, sampled=True)
        frame.t_start_us = self.clock()

    def stop(self, name: str) -> Frame:
        """Stop the named timer (must be the innermost started one).

        Returns the stopped frame: its clock interval, the MPI time the
        ledger gained inside it and the counters read at either end.  A frame
        started while its group was disabled records nothing in the
        timer statistics.
        """
        frame = self._top
        if frame is None:
            raise RuntimeError(f"stop({name!r}) with no timer running")
        if frame.name != name:
            raise RuntimeError(
                f"stop({name!r}) does not match innermost running timer {frame.name!r}"
            )
        frame.t_end_us = self.clock()
        frame.end_counters = self.counters.read()
        frame.charged_us = charged = self._mpi_us() - frame.start_mpi_us
        self._top = parent = frame.parent
        if frame.suppressed:
            # Time nested under a suppressed frame still belongs to the
            # enclosing live region's children.
            if parent is not None:
                parent.child_us += frame.child_us
            return frame
        if charged:
            # The timestamps stay real wall clock (cross-rank ordering
            # depends on it); the attribute makes the modeled MPI cost
            # visible per region in the exported trace.
            frame.attrs["virtual_us"] = charged
        if self.tracer is not None and frame.span_id != UNKEPT:
            self.tracer.close(frame)
        interval = frame.t_end_us - frame.t_start_us
        timer = self._timers[name]
        timer.calls += 1
        timer.exclusive_us += interval - frame.child_us
        if not frame.reentrant:
            # Recursive re-entries would double-count inclusive time.
            # Modeled costs have no wall-clock footprint of their own: the
            # inclusive time is extended to cover them.
            timer.inclusive_us += interval + charged
        if parent is not None:
            parent.child_us += interval
        return frame

    @contextlib.contextmanager
    def timer(self, name: str, group: str = "default") -> Iterator[None]:
        """Context manager bracketing a region with start/stop."""
        self.start(name, group)
        try:
            yield
        finally:
            self.stop(name)

    # ----------------------------------------------------------- queries
    def _frames(self) -> Iterator[Frame]:
        """The running frames, innermost first."""
        f = self._top
        while f is not None:
            yield f
            f = f.parent

    def running(self) -> list[str]:
        """Names of currently running timers, outermost first."""
        return [f.name for f in self._frames() if not f.suppressed][::-1]

    def get(self, name: str) -> TimerStats:
        """Cumulative stats for one timer (KeyError if unknown)."""
        return self.timers_snapshot()[name]

    def timers_snapshot(self) -> dict[str, TimerStats]:
        """Copies of all cumulative timer stats, the ledger's MPI rows
        included (a modeled routine's time is all exclusive)."""
        snap = {n: t.copy() for n, t in self._timers.items()}
        if self.ledger is not None:
            for n, st in self.ledger.routine_totals().items():
                snap[n] = TimerStats(n, MPI_GROUP, st.total_us, st.total_us,
                                     st.calls)
        return snap

    def group_total_us(self, group: str) -> float:
        """Sum of inclusive time over all timers in ``group``.

        With ``group="MPI"`` this is the ledger's total, the paper's "MPI
        time ... determined by the summation of the times of all the MPI
        routines".
        """
        if group == MPI_GROUP:
            return self._mpi_us()
        return sum(t.inclusive_us for t in self._timers.values() if t.group == group)


def format_profile(rank: int, timers: Mapping[str, TimerStats],
                   events: Mapping[str, Mapping[str, float]],
                   counters: Mapping[str, int]) -> str:
    """TAU-style text profile of one rank, from its run record's timers,
    atomic-event summaries and hardware counters."""
    lines = [f"# TAU-style profile, rank {rank}", "# name group calls incl_us excl_us"]
    for name, t in sorted(timers.items()):
        lines.append(
            f"{name!r} {t.group} {t.calls} {t.inclusive_us:.3f} {t.exclusive_us:.3f}"
        )
    lines.append("# atomic events: name min max mean std count")
    for name, s in sorted(events.items()):
        lines.append(
            f"{name!r} {s['min']:.6g} {s['max']:.6g} {s['mean']:.6g} "
            f"{s['std']:.6g} {int(s['count'])}"
        )
    lines.append("# hardware counters")
    for name, v in sorted(counters.items()):
        lines.append(f"{name} {v}")
    return "\n".join(lines) + "\n"
