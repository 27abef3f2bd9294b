"""Message envelopes, wildcards and receive status for the MPI simulator."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

ANY_SOURCE: int = -1
ANY_TAG: int = -1

#: What a mailbox entry stands for (``Envelope.fate``): a delivered
#: message, an injected drop the transport retransmits, or a tombstone for
#: a drop lost for good.  The values double as the mp-shm wire record kind.
DELIVERED, RETRANSMITTED, LOST = 0, 1, 2

#: Sequence numbers must be unique across every rank of a job: they key
#: receiver-side duplicate suppression and the cross-rank flow edges of the
#: span tracer.  With thread-backed ranks one process-wide counter suffices;
#: with process-backed ranks (the ``mp-shm`` backend) each rank process
#: inherits a *copy* of this module at fork/spawn, so the counter would be
#: silently duplicated and ranks would collide.  :func:`rebase_seqno` moves
#: a worker process onto a disjoint per-rank range before any send happens.
_SEQ_RANK_SHIFT = 44

_seqno = itertools.count()


def rebase_seqno(rank: int) -> None:
    """Re-base this process's send-sequence counter onto ``rank``'s range.

    Called once at worker startup by process-backed communicator backends;
    rank r draws from ``[(r+1) << 44, ...)``, disjoint from every other
    rank and from the parent process's unshifted range.
    """
    global _seqno
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    _seqno = itertools.count((rank + 1) << _SEQ_RANK_SHIFT)


def copy_payload(obj: Any) -> Any:
    """Value-semantics copy of a message payload (MPI buffered-send copy).

    Module-scope imports on purpose: this runs once per transport hop on
    the collective fast path, where a per-call ``import`` is measurable.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if obj is None or isinstance(obj, (int, float, complex, str, bytes, bool)):
        return obj
    return copy.deepcopy(obj)


@dataclass
class Envelope:
    """An in-flight message.

    ``cost_us`` is the network-model transfer time sampled at send time;
    the receiver charges it when the message is matched (a blocking receive
    pays for the transfer, as in a real rendezvous).  ``seq`` preserves
    per-(source, tag) FIFO matching order, the MPI non-overtaking rule.

    ``trace_ctx`` carries the sender's span context ``(rank, span_id)``
    when tracing is on: it is what turns a matched send/recv pair into a
    causal cross-rank edge in the merged span DAG (the flow id is the
    globally unique ``seq``, shared by retransmissions and injected
    duplicates of the same logical message).

    ``fate`` marks an injected drop deposited under a resilience policy
    (``RETRANSMITTED`` or ``LOST``); it sits in the mailbox at its ``seq``
    like any message, so recovery keeps send order.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    cost_us: float
    seq: int = field(default_factory=lambda: next(_seqno))
    trace_ctx: tuple[int, int] | None = None
    fate: int = DELIVERED

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope match a receive posted for (source, tag)?"""
        return (source in (ANY_SOURCE, self.source)) and (tag in (ANY_TAG, self.tag))


@dataclass
class Status:
    """Receive status (mpi4py-style).

    Filled in by ``recv``/``Request.wait`` when the caller passes one.
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self) -> int:
        return self.nbytes
