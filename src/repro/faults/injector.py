"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is shared by all ranks of a simulated job
(attached to the :class:`~repro.mpi.world.SimWorld`); the MPI layer and the
performance proxies consult it at well-defined boundaries:

* :meth:`on_send` — every point-to-point envelope, at send time, in the
  sender's thread;
* :meth:`on_mpi_op` — every MPI accounting charge (stall injection);
* :meth:`on_component_call` — every proxied component invocation;
* :meth:`crash_due` — the driver's per-step crash check.

All mutable state is partitioned by rank and touched only from that rank's
thread, so no locking is needed and the schedule cannot depend on thread
interleaving.  Every injected fault and resilience event is one
``(name, value)`` entry in the rank's ordered ``events`` list, which
``counts``, :meth:`total_counts` and :meth:`schedule_signature` fold.
When the world traces, it is also an instant in category
:data:`~repro.obs.span.CAT_FAULT` on the rank's own
:class:`~repro.obs.span.SpanTracer`, under whatever span is open there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (COMPONENT_DELAY, DELAY, DROP, DUPLICATE,
                               RAISE, FaultPlan)
from repro.obs.span import CAT_FAULT
from repro.util.rng import rng_from_key


class TransientComponentError(RuntimeError):
    """Injected failure of a component invocation (retryable)."""


class SimulatedCrash(RuntimeError):
    """Injected process death (the scenario checkpoint/restart recovers)."""


@dataclass(frozen=True)
class MessageAction:
    """What to do with one envelope: ``kind`` is a plan message-fault kind
    or ``None`` (deliver normally)."""

    kind: str | None = None
    delay_us: float = 0.0
    delay_factor: float = 1.0
    recoverable: bool = True


@dataclass(frozen=True)
class ComponentAction:
    """Injected behavior for one proxied invocation."""

    kind: str  # RAISE or COMPONENT_DELAY
    delay_us: float = 0.0


DELIVER = MessageAction()


class _Matcher:
    """Occurrence counting + thinning for one fault on one rank."""

    __slots__ = ("fault", "seen", "rng")

    def __init__(self, fault, rng: np.random.Generator | None) -> None:
        self.fault = fault
        self.seen = 0
        self.rng = rng

    def fires(self) -> bool:
        """Advance this rank's occurrence counter; True if the fault fires."""
        f = self.fault
        k = self.seen
        self.seen += 1
        if not (f.index <= k < f.index + f.count):
            return False
        if f.probability >= 1.0:
            return True
        return bool(self.rng.random() < f.probability)


class FaultInjector:
    """Deterministic fault scheduler for one simulated job."""

    def __init__(self, plan: FaultPlan, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.plan = plan
        self.nranks = int(nranks)
        #: per-rank fault record: ``(name, value)`` in program order
        self.events: list[list[tuple[str, float]]] = [[] for _ in range(nranks)]
        #: the world's per-rank ``RankObs``, bound by ``SimWorld`` (or None)
        self.obs: list | None = None
        self._message = [self._matchers(plan.messages, "m", r) for r in range(nranks)]
        self._stall = [self._matchers(plan.stalls, "s", r) for r in range(nranks)]
        self._component = [self._matchers(plan.components, "c", r) for r in range(nranks)]

    def _matchers(self, faults, tag: str, rank: int) -> list[_Matcher]:
        out = []
        for idx, f in enumerate(faults):
            rng = None
            if f.probability < 1.0:
                # Stream keyed by (seed, fault kind, fault index, rank):
                # independent of every other draw in the simulator.
                rng = rng_from_key(self.plan.seed, ord(tag), idx, rank)
            out.append(_Matcher(f, rng))
        return out

    # ------------------------------------------------------------- hooks
    def note(self, rank: int, name: str, value: float = 0.0) -> None:
        """Record an injected fault or a resilience event (retry, recovery,
        failure, checkpoint) on ``rank``, from that rank's thread."""
        self.events[rank].append((name, value))
        if self.obs is not None:
            self.obs[rank].tracer.instant(name, CAT_FAULT, value=value)

    def on_send(self, source: int, dest: int, tag: int) -> MessageAction:
        """Consult message faults for one envelope (sender's thread)."""
        for m in self._message[source]:
            f = m.fault
            if not f.matches(source, dest, tag):
                continue
            if not m.fires():
                continue
            self.note(source, f"fault.{f.kind}")
            if f.kind == DROP:
                return MessageAction(kind=DROP, recoverable=f.recoverable)
            if f.kind == DUPLICATE:
                return MessageAction(kind=DUPLICATE)
            return MessageAction(kind=DELAY, delay_us=f.delay_us,
                                 delay_factor=f.delay_factor)
        return DELIVER

    def on_mpi_op(self, rank: int, routine: str) -> float:
        """Extra modeled microseconds to charge this MPI operation."""
        extra = 0.0
        for m in self._stall[rank]:
            f = m.fault
            if f.rank != rank:
                continue
            if f.routine is not None and f.routine != routine:
                continue
            if m.fires():
                extra += f.extra_us
                self.note(rank, "fault.stall", f.extra_us)
        return extra

    def on_component_call(self, rank: int, label: str, method: str) -> ComponentAction | None:
        """Injected behavior for one proxied invocation (or None)."""
        for m in self._component[rank]:
            f = m.fault
            if not f.matches(label, method):
                continue
            if not m.fires():
                continue
            if f.kind == RAISE:
                self.note(rank, "fault.raise")
                return ComponentAction(kind=RAISE)
            self.note(rank, "fault.component_delay", f.delay_us)
            return ComponentAction(kind=COMPONENT_DELAY, delay_us=f.delay_us)
        return None

    def crash_due(self, rank: int, step: int) -> bool:
        """Should ``rank`` die at the start of driver step ``step``?"""
        p = self.plan
        if p.kill_at_step is None or step != p.kill_at_step:
            return False
        return p.kill_ranks is None or rank in p.kill_ranks

    # ----------------------------------------------------------- queries
    @property
    def counts(self) -> list[dict[str, int]]:
        """Per-rank event counts by name, in first-occurrence order."""
        return [dict(Counter(name for name, _ in events))
                for events in self.events]

    def schedule_signature(self) -> list[list[str]]:
        """Per-rank ordered *injected-fault* event names (values
        stripped) — the object determinism tests compare.

        Only ``fault.*`` events count: injection points are visited in each
        rank's program order, so the signature is reproducible.  Recovery
        events (``mpi.*``, ``component.*``, ``checkpoint.*``) are excluded:
        the signature is what the plan injected, not how the run handled it.
        """
        return [[name for name, _ in events if name.startswith("fault.")]
                for events in self.events]

    def total_counts(self) -> dict[str, int]:
        """Event totals across ranks, by name."""
        return dict(Counter(name for events in self.events
                            for name, _ in events))
