"""Per-rank observability state and its configuration.

One :class:`RankObs` (a span tracer + a metrics registry) is attached
to each rank of a :class:`~repro.mpi.world.SimWorld` when an
:class:`ObsConfig` is passed to the runner; the MPI layer, the TAU
profiler, the proxies, the fault paths and the checkpoint writer all
find it there and record into it, and the rank's run record
(:mod:`repro.obs.record`) reads it with the ledger and Mastermind it is
bound to.  ``None`` everywhere means observability is off and every
hook is a cheap attribute check.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import CAT_STEP, Span, SpanTracer


@dataclass
class ObsConfig:
    """Knobs for the observability layer.

    ``sample_every=N`` traces 1-in-N proxied component invocations (MPI
    spans are always traced — a sampled-out send would orphan its
    receive edge); metrics are always on, they are constant-memory (the
    MPI and invocation series are read from the ledger and the records).

    ``flight_recorder=True`` keeps a per-rank black box
    (:mod:`repro.obs.flightrec`): when the job dies, the rank's run record
    cut to the tracer's last ``flightrec_depth`` spans is dumped to
    ``flightrec_dir``.  The window must fit in what the tracer keeps
    after an eviction, so ``flightrec_depth`` is at most
    ``max_spans // 2``.
    """

    sample_every: int = 1
    max_spans: int = 200_000
    flight_recorder: bool = False
    flightrec_depth: int = 512
    flightrec_dir: str = os.path.join("out", "flightrec")

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.max_spans < 2:
            raise ValueError(f"max_spans must be >= 2, got {self.max_spans}")
        if not 1 <= self.flightrec_depth <= self.max_spans // 2:
            raise ValueError(
                f"flightrec_depth must be in [1, max_spans // 2 = "
                f"{self.max_spans // 2}], got {self.flightrec_depth}")


class RankObs:
    """One rank's observability state (used only from that rank's thread)."""

    __slots__ = ("rank", "config", "tracer", "metrics", "last_step",
                 "ledger", "mastermind", "dumped_to")

    def __init__(self, rank: int, config: ObsConfig) -> None:
        self.rank = int(rank)
        self.config = config
        self.tracer = SpanTracer(rank=rank, max_spans=config.max_spans,
                                 sample_every=config.sample_every)
        self.metrics = MetricsRegistry(rank=rank)
        #: the step whose :meth:`step` bracket ended last (None before any)
        self.last_step: int | None = None
        #: the stores the metrics views fold, bound by the rank's world and
        #: by ``Mastermind.set_services`` (None while unbound)
        self.ledger: Any = None
        self.mastermind: Any = None
        #: path of the flight-recorder dump once written (the first cause
        #: wins: see :func:`~repro.obs.flightrec.dump_flight_recorders`)
        self.dumped_to: str | None = None

    @contextlib.contextmanager
    def step(self, step: int) -> Iterator[Span | None]:
        """Bracket one timestep in a ``timestep`` span.

        On every way out, a crash unwinding included, the span closes and
        the step becomes :attr:`last_step`; nothing is folded.
        """
        span = self.tracer.start(  # ra: noqa[RA001] — a span, closed by end()
            "timestep", CAT_STEP, step=step)
        try:
            yield span
        finally:
            self.tracer.end(span)
            self.last_step = step


def build_obs(nranks: int, config: ObsConfig | None) -> list[RankObs] | None:
    """Per-rank observability states, or None when tracing is off."""
    if config is None:
        return None
    return [RankObs(r, config) for r in range(nranks)]
