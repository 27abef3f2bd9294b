"""Record objects (paper Section 4.3).

"For each method that is monitored, a record object is created and stored
by the Mastermind.  The record object stores all the measurement data for
each of the invocations of a single routine. ... When a record object is
destroyed, it outputs to a file all of the measurement data for each
invocation that it stored."  Here the records are part of the rank's run
record (:mod:`repro.obs.record`) and :func:`record_files` renders that
output from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.tau.query import InvocationMeasurement

#: the caller of an invocation no monitored routine encloses
ROOT = "<root>"


@dataclass(frozen=True)
class InvocationRecord:
    """One monitored invocation: extracted parameters + measured costs.

    ``caller`` is the timer name of the nearest enclosing monitored
    invocation (:data:`ROOT` for none): the record's call-path edge.
    """

    params: Mapping[str, Any]
    measurement: InvocationMeasurement
    caller: str = ROOT

    @property
    def wall_us(self) -> float:
        return self.measurement.wall_us

    @property
    def mpi_us(self) -> float:
        return self.measurement.mpi_us

    @property
    def compute_us(self) -> float:
        return self.measurement.compute_us

    def to_dict(self) -> dict[str, Any]:
        """Checkpoint representation (exact float round-trip)."""
        return {
            "params": dict(self.params),
            "wall_us": self.measurement.wall_us,
            "mpi_us": self.measurement.mpi_us,
            "counters": dict(self.measurement.counters),
            "caller": self.caller,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InvocationRecord":
        return cls(
            params=dict(data["params"]),
            measurement=InvocationMeasurement(
                wall_us=data["wall_us"],
                mpi_us=data["mpi_us"],
                counters=dict(data.get("counters", {})),
            ),
            caller=data["caller"],
        )


class MethodRecord:
    """All invocations of a single monitored routine."""

    def __init__(self, label: str, method: str) -> None:
        self.label = label
        self.method = method
        self.invocations: list[InvocationRecord] = []

    @property
    def key(self) -> tuple[str, str]:
        return (self.label, self.method)

    @property
    def timer_name(self) -> str:
        """TAU timer name for this routine, e.g. ``sc_proxy::compute()``."""
        return f"{self.label}::{self.method}()"

    def add(self, record: InvocationRecord) -> None:
        self.invocations.append(record)

    def __len__(self) -> int:
        return len(self.invocations)

    # ------------------------------------------------------------ series
    def param_series(self, param: str) -> np.ndarray:
        """The value of one extracted parameter across invocations.

        Invocations missing the parameter raise ``KeyError`` — a missing
        performance parameter means the proxy's extractor is wrong.
        """
        try:
            return np.asarray([inv.params[param] for inv in self.invocations], dtype=float)
        except KeyError:
            raise KeyError(
                f"{self.timer_name}: parameter {param!r} missing from some "
                f"invocation records; recorded params include "
                f"{sorted(self.invocations[0].params) if self.invocations else []}"
            ) from None

    def wall_series(self) -> np.ndarray:
        return np.asarray([inv.wall_us for inv in self.invocations])

    def mpi_series(self) -> np.ndarray:
        return np.asarray([inv.mpi_us for inv in self.invocations])

    def compute_series(self) -> np.ndarray:
        return np.asarray([inv.compute_us for inv in self.invocations])

    def total_mpi_us(self) -> float:
        return float(self.mpi_series().sum()) if self.invocations else 0.0

    def total_wall_us(self) -> float:
        return float(self.wall_series().sum()) if self.invocations else 0.0

    # -------------------------------------------------------- checkpoint
    def to_dict(self) -> dict[str, Any]:
        """Checkpoint representation of the whole record."""
        return {
            "label": self.label,
            "method": self.method,
            "invocations": [inv.to_dict() for inv in self.invocations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MethodRecord":
        rec = cls(data["label"], data["method"])
        rec.invocations = [InvocationRecord.from_dict(d) for d in data["invocations"]]
        return rec

    # -------------------------------------------------------------- text
    def to_text(self) -> str:
        """Render every stored invocation (the record's file output)."""
        param_names = sorted({k for inv in self.invocations for k in inv.params})
        header = ["#", *param_names, "wall_us", "mpi_us", "compute_us"]
        lines = [f"# method record: {self.timer_name}", "\t".join(header)]
        for i, inv in enumerate(self.invocations):
            cells = [str(i)]
            cells += [repr(inv.params.get(p, "")) for p in param_names]
            cells += [f"{inv.wall_us:.3f}", f"{inv.mpi_us:.3f}", f"{inv.compute_us:.3f}"]
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def record_files(state: Iterable[Mapping[str, Any]]) -> dict[str, str]:
    """The record-destruction output of Section 4.3, from a run record's
    ``records`` (:meth:`~repro.perf.mastermind.Mastermind.records_state`):
    each method record's text, by file name."""
    files = {}
    for data in state:
        rec = MethodRecord.from_dict(data)
        fname = f"{rec.label}.{rec.method}.record".replace(os.sep, "_")
        files[fname] = rec.to_text()
    return files
