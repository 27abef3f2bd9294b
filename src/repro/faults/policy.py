"""Recovery semantics: retransmission, deduplication, retries and typed
failures.

A :class:`ResiliencePolicy` attached to a
:class:`~repro.mpi.world.SimWorld` changes what an injected fault does:

* **point-to-point** — a dropped message is not lost in a side store: it is
  deposited in the destination's mailbox at its send sequence number,
  marked *retransmitted* when the plan calls it recoverable and as a
  *tombstone* otherwise.  The receive that consumes a retransmitted entry
  charges ``retransmit_cost_us`` of modeled time to ``MPI_Retransmit``
  (once per message, so the total is fixed by the fault plan); the
  receive or probe that matches a tombstone raises a typed
  :class:`CommFailure` at once.  Injected duplicates are discarded by
  send sequence number.  Without a policy a dropped message is simply
  gone and its receiver times out.
* **collectives** — a collective that reaches the world's hard deadline
  (``timeout_s`` from entry) raises :class:`CommFailure` instead of the
  simulator's plain timeout.
* **components** — a proxy that receives an injected transient error
  retries the consultation up to ``max_attempts`` times, sleeping
  ``component_backoff_s`` (doubling) between attempts.

No decision here reads the wall clock: recovery happens on the evidence
in the mailbox, and the only wall-clock rule left is the world's one hard
deadline, which bounds liveness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive


class CommFailure(RuntimeError):
    """A communication operation failed for good.

    Raised instead of an indefinite hang when a receive matches an
    unrecoverably dropped message, or a collective under a policy reaches
    the hard deadline.
    """


@dataclass(frozen=True)
class ResiliencePolicy:
    """Recovery configuration for the simulated runtime."""

    #: attempts at a proxied component call before an injected transient
    #: failure is final (component retries only; messages are recovered
    #: on evidence, not by attempts)
    max_attempts: int = 5
    #: modeled time charged to ``MPI_Retransmit`` per recovered message
    retransmit_cost_us: float = 500.0
    #: real sleep before a component-call retry (doubles per attempt)
    component_backoff_s: float = 0.001

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        check_non_negative("retransmit_cost_us", self.retransmit_cost_us)
        check_non_negative("component_backoff_s", self.component_backoff_s)


@dataclass
class ResilienceStats:
    """Per-rank counters of recovery activity during one run.

    Every counter is exact under a fixed plan and seed, on every backend:
    each is booked where a receive or a proxied call meets the evidence
    (:meth:`repro.mpi.world.SimWorld.book`).  ``retry_rounds`` counts one
    per retransmitted message, so it equals ``recovered``.
    """

    retry_rounds: int = 0
    recovered: int = 0
    deduplicated: int = 0
    component_retries: int = 0
    failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)
