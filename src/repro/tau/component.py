"""The TAU component (paper Section 4.1).

Wraps the rank's :class:`~repro.tau.profiler.Profiler` as a CCA component
"accessed via a MeasurementPort, which defines interfaces for timing, event
management, timer control and measurement query".  Wiring it binds the
rank's MPI ledger to the profiler, which from then on reads its ``MPI``
rows and every frame's MPI time from that ledger.
"""

from __future__ import annotations

from repro.cca.component import Component
from repro.cca.ports import Port
from repro.cca.services import Services
from repro.tau.profiler import Profiler
from repro.tau.query import MeasurementSnapshot
from repro.tau.timer import Frame


class MeasurementPort(Port):
    """Timing + event + control + query interface of the TAU component."""

    # -- timing interface
    def start_timer(self, name: str, group: str = "default") -> None:
        raise NotImplementedError

    def stop_timer(self, name: str) -> Frame:
        """Stop the innermost timer and hand back its stopped frame."""
        raise NotImplementedError

    # -- event interface
    def record_event(self, name: str, value: float) -> None:
        raise NotImplementedError

    # -- control interface
    def enable_group(self, group: str) -> None:
        raise NotImplementedError

    def disable_group(self, group: str) -> None:
        raise NotImplementedError

    # -- query interface
    def query(self) -> MeasurementSnapshot:
        raise NotImplementedError


class _MeasurementImpl(MeasurementPort):
    """MeasurementPort implementation over a Profiler."""

    def __init__(self, profiler: Profiler) -> None:
        self._profiler = profiler

    @property
    def profiler(self) -> Profiler:
        return self._profiler

    def start_timer(self, name: str, group: str = "default") -> None:
        self._profiler.start(name, group)

    def stop_timer(self, name: str) -> Frame:
        return self._profiler.stop(name)

    def record_event(self, name: str, value: float) -> None:
        self._profiler.events.record(name, value)

    def enable_group(self, group: str) -> None:
        self._profiler.enable_group(group)

    def disable_group(self, group: str) -> None:
        self._profiler.disable_group(group)

    def query(self) -> MeasurementSnapshot:
        """Current cumulative wall/MPI/counter values (Section 4.3's reads)."""
        return MeasurementSnapshot.capture(self._profiler)


class TauMeasurementComponent(Component):
    """CCA component exporting the rank profiler as ``"measurement"``.

    By default it adopts the framework's per-rank profiler and binds the
    rank's MPI ledger to it, so MPI time is visible through the query
    interface; a dedicated profiler may be injected for isolation in
    tests (it stays unbound and sees no MPI time).
    """

    #: name under which the MeasurementPort is provided
    PORT_NAME = "measurement"

    def __init__(self, profiler: Profiler | None = None) -> None:
        self._own_profiler = profiler
        self._impl: _MeasurementImpl | None = None

    def set_services(self, services: Services) -> None:
        profiler = self._own_profiler
        if profiler is None:
            fw = services.framework
            profiler = fw.profiler
            if fw.comm is not None:
                profiler.ledger = fw.comm.accounting
        self._impl = _MeasurementImpl(profiler)
        services.add_provides_port(self._impl, self.PORT_NAME, MeasurementPort)

    @property
    def measurement(self) -> _MeasurementImpl:
        if self._impl is None:
            raise RuntimeError("TauMeasurementComponent not yet initialized by a framework")
        return self._impl
