"""The Mastermind component (paper Section 4.3).

"The Mastermind component is responsible for gathering, storing and
reporting of the measurement data."  It provides the MonitorPort the
proxies call, holds one :class:`~repro.perf.records.MethodRecord` per
monitored routine, and implements the paper's cumulative-differencing
measurement discipline:

1. ``begin_invocation`` — store the extracted parameters and start the
   routine's TAU timer (group ``proxied``);
2. ``end_invocation`` — stop the timer.  The stopped TAU frame *is* the
   cumulative difference: its clock interval is the wall time, the
   rank's MPI ledger total read at its stop minus at its start is the MPI
   time, and the counters it read at either end give the counter deltas.  The nearest enclosing ``proxied``
   frame is the invocation's caller.  The measurement is filed in the
   record; no whole-profile snapshot is taken.

The records are the one store of what was invoked: with observability
on, the rank's metrics views read the invocation series from them
(:func:`repro.obs.export.rank_metrics`), so an invocation writes no
metric and a restored run's metrics count the restored calls too.

Beyond measurement it offers the Section 6 machinery: per-method
performance-model construction, the call path (a fold over the records'
callers), and an online model-drift check ("dynamic performance
optimization which uses online performance monitoring to determine when
performance expectations are not being met").
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.cca.component import Component
from repro.cca.services import PortNotConnectedError, Services
from repro.models.composite import Workload
from repro.models.performance import PerformanceModel, build_model
from repro.perf.monitor import MonitorPort
from repro.perf.records import ROOT, InvocationRecord, MethodRecord
from repro.tau.component import MeasurementPort
from repro.tau.query import InvocationMeasurement


@dataclass
class _ActiveInvocation:
    key: tuple[str, str]
    params: Mapping[str, Any]
    timer_name: str


class Mastermind(Component, MonitorPort):
    """Measurement gatherer/reporter; also the modeling front-end."""

    MONITOR_PROVIDES = "monitor"
    MEASUREMENT_USES = "measurement"

    #: TAU timer group under which proxy-bracketed routines are recorded
    TIMER_GROUP = "proxied"

    def __init__(self) -> None:
        self._services: Services | None = None
        self._records: dict[tuple[str, str], MethodRecord] = {}
        self._active: dict[int, _ActiveInvocation] = {}
        self._next_token = 0

    def __getstate__(self) -> dict:
        """Pickle the measurement database without the framework wiring.

        ``_services`` links back into the live framework (ports, comm,
        locks) and is meaningless in another process; a rehydrated
        Mastermind is a read-only record store until ``set_services`` is
        called again.
        """
        state = self.__dict__.copy()
        state["_services"] = None
        return state

    # --------------------------------------------------------------- CCA
    def set_services(self, services: Services) -> None:
        self._services = services
        obs = services.framework.obs
        if obs is not None:
            obs.mastermind = self  # the rank's metrics views read the records
        services.add_provides_port(self, self.MONITOR_PROVIDES, MonitorPort)
        services.register_uses_port(self.MEASUREMENT_USES, MeasurementPort)

    def _measurement(self) -> MeasurementPort:
        if self._services is None:
            raise RuntimeError("Mastermind not initialized by a framework")
        try:
            return self._services.get_port(self.MEASUREMENT_USES)
        except PortNotConnectedError:
            raise PortNotConnectedError(
                "Mastermind requires a connected TAU MeasurementPort "
                "(connect 'measurement' to a TauMeasurementComponent)"
            ) from None

    # ------------------------------------------------------- MonitorPort
    def begin_invocation(self, label: str, method: str, params: Mapping[str, Any]) -> int:
        key = (label, method)
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = MethodRecord(label, method)
        # Parameters were extracted by the proxy before this call; from here
        # on we only start the timer (outside-the-timers rule).
        self._measurement().start_timer(rec.timer_name, group=self.TIMER_GROUP)
        token = self._next_token
        self._next_token += 1
        self._active[token] = _ActiveInvocation(
            key=key, params=dict(params), timer_name=rec.timer_name
        )
        return token

    def end_invocation(self, token: int) -> None:
        try:
            act = self._active.pop(token)
        except KeyError:
            raise RuntimeError(f"end_invocation with unknown token {token}") from None
        frame = self._measurement().stop_timer(act.timer_name)
        start = frame.start_counters
        measurement = InvocationMeasurement(
            wall_us=frame.t_end_us - frame.t_start_us,
            mpi_us=frame.charged_us,
            counters={k: v - start.get(k, 0) for k, v in frame.end_counters.items()},
        )
        caller = frame.parent
        while caller is not None and caller.group != self.TIMER_GROUP:
            caller = caller.parent
        self._records[act.key].add(InvocationRecord(
            params=act.params, measurement=measurement,
            caller=caller.name if caller is not None else ROOT))

    # ----------------------------------------------------------- queries
    def record(self, label: str, method: str) -> MethodRecord:
        """The record object for one monitored routine (KeyError if none)."""
        try:
            return self._records[(label, method)]
        except KeyError:
            raise KeyError(
                f"no record for {label}::{method}; monitored routines: "
                f"{sorted(self._records)}"
            ) from None

    def all_records(self) -> list[MethodRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def labels(self) -> list[str]:
        return sorted({label for (label, _m) in self._records})

    def edge_counts(self) -> dict[tuple[str, str], int]:
        """The call path: ``(caller, callee) -> calls``, folded from the
        records' callers (``caller`` is :data:`~repro.perf.records.ROOT`
        for an invocation no monitored routine encloses)."""
        return dict(collections.Counter((inv.caller, rec.timer_name)
                                         for rec in self._records.values()
                                         for inv in rec.invocations))

    # ---------------------------------------------------------- modeling
    def workload(self, label: str, method: str, param: str = "Q") -> Workload:
        """The observed workload of a routine, for composite evaluation."""
        rec = self.record(label, method)
        return Workload.from_samples(rec.param_series(param))

    def build_performance_model(
        self,
        label: str,
        method: str,
        param: str = "Q",
        use: str = "wall",
        **model_kwargs: Any,
    ) -> PerformanceModel:
        """Fit a PerformanceModel from this routine's record.

        ``use`` selects the measured quantity: ``"wall"`` (total),
        ``"compute"`` (wall minus MPI) or ``"mpi"``.
        """
        rec = self.record(label, method)
        series = {
            "wall": rec.wall_series,
            "compute": rec.compute_series,
            "mpi": rec.mpi_series,
        }
        try:
            t = series[use]()
        except KeyError:
            raise ValueError(f"use must be one of {sorted(series)}, got {use!r}") from None
        return build_model(rec.timer_name, rec.param_series(param), t, **model_kwargs)

    def build_modal_performance_model(
        self,
        label: str,
        method: str,
        param: str = "Q",
        mode_param: str = "mode",
        **model_kwargs: Any,
    ):
        """Fit one model per access mode from this routine's record.

        The mode-resolved refinement of :meth:`build_performance_model`
        (see :mod:`repro.models.permode`); requires the proxy extractor to
        have recorded ``mode_param``.
        """
        from repro.models.permode import build_modal_model

        return build_modal_model(self.record(label, method), param=param,
                                 mode_param=mode_param, **model_kwargs)

    def check_model(
        self,
        label: str,
        method: str,
        model: PerformanceModel,
        param: str = "Q",
        n_sigma: float = 3.0,
        floor_us: float = 0.0,
    ) -> float:
        """Online drift check: fraction of invocations outside mean±n·sigma.

        Returns the violation fraction in [0, 1]; a high value means
        "performance expectations are not being met" and a model-guided
        component replacement should be considered (Section 6).
        """
        rec = self.record(label, method)
        q = rec.param_series(param)
        t = rec.wall_series()
        mean = np.atleast_1d(model.predict_mean(q))
        std = np.atleast_1d(model.predict_std(q))
        band = np.maximum(n_sigma * std, floor_us)
        violations = np.abs(t - mean) > band
        return float(violations.mean()) if t.size else 0.0

    # ------------------------------------------------------------ report
    def report(self) -> str:
        """Human-readable summary of every monitored routine.

        One row per record: invocation count, mean wall time, mean MPI
        time, and the observed workload-parameter range — the "reporting"
        third of the Mastermind's gather/store/report mandate.
        """
        from repro.util.tabular import format_table

        rows = []
        for rec in self.all_records():
            wall = rec.wall_series()
            mpi = rec.mpi_series()
            try:
                q = rec.param_series("Q")
                q_range = f"{int(q.min())}..{int(q.max())}" if q.size else "-"
            except KeyError:
                q_range = "-"
            rows.append((
                rec.timer_name,
                len(rec),
                f"{wall.mean():,.1f}" if len(rec) else "-",
                f"{mpi.mean():,.1f}" if len(rec) else "-",
                q_range,
            ))
        return format_table(
            ["routine", "#invocations", "mean wall us", "mean MPI us", "Q range"],
            rows,
            title="Mastermind measurement report:",
        )

    # -------------------------------------------------------- checkpoint
    def records_state(self) -> list[dict]:
        """Serializable state of every method record (checkpoint payload)."""
        return [rec.to_dict() for rec in self.all_records()]

    def restore_records(self, state: list[dict]) -> None:
        """Reload records from :meth:`records_state` output.

        Replaces any records accumulated so far; used by checkpoint/restart
        so a resumed run's measurement history is identical to an
        uninterrupted one.
        """
        if self._active:
            raise RuntimeError(
                f"cannot restore records with {len(self._active)} open invocation(s)"
            )
        self._records = {}
        for data in state:
            rec = MethodRecord.from_dict(data)
            self._records[rec.key] = rec

    def release(self) -> None:
        """Framework destruction hook; active invocations must be closed."""
        if self._active:
            raise RuntimeError(
                f"Mastermind destroyed with {len(self._active)} open invocation(s)"
            )
