"""Collective data movement: one tree over the mailbox.

Every collective (barrier, bcast, gather, scatter, allgather, alltoall,
reduce, allreduce, scan, comm dup) moves its values the same way on every
backend: :func:`tree_allgather`, a binomial-tree gather to rank 0 followed
by a binomial-tree broadcast of the by-rank list, ``2 ceil(log2 P)``
stages expressed purely over the world's point-to-point primitives
(``deliver``/``wait_recvs``).  So the same code moves data between rank
*threads* (thread backend) and rank *processes* (mp-shm backend), and a
rank blocked in a collective blocks in the one mailbox wait engine, which
owns the deadline, the abort, the fault settling and the deadlock
registration.

Transport envelopes move in a reserved ``__coll__:``-prefixed context with
zero modeled cost: they are *mechanism*, not *model*.  The modeled cost of
a collective is charged once, under the collective's MPI routine name,
from :meth:`~repro.mpi.network.NetworkModel.collective_cost` - so ledgers
stay per-routine exactly as the paper's Figure 3 expects.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.codec import transport_nbytes
from repro.mpi.message import Envelope, copy_payload

#: message-context prefix reserved for collective transport traffic
COLL_CONTEXT_PREFIX = "__coll__:"


def coll_context(context: str) -> str:
    """Transport context derived from a communicator's message context."""
    return COLL_CONTEXT_PREFIX + context


def _tsend(world, context: str, source: int, dest: int, tag: int,
           payload: Any) -> None:
    """Zero-cost transport send (bypasses accounting/injection/sanitizer).

    Payloads are value-copied at every hop: on the thread backend the same
    object reference would otherwise be forwarded down the tree and alias
    across ranks (the process backend copies by serializing anyway).
    """
    world.deliver(context, Envelope(
        source=source, dest=dest, tag=tag, payload=copy_payload(payload),
        nbytes=transport_nbytes(payload), cost_us=0.0))


def _trecv(world, context: str, rank: int, source: int, tag: int,
           op: str) -> Any:
    """Blocking transport receive: the world's wait engine with one want
    and no charge (transport envelopes are never dropped), blocked in
    ``op``."""
    return world.wait_recvs(rank, [(context, source, tag)], op=op)[0].payload


def binomial_bcast(world, context: str, rank: int, nranks: int, tag: int,
                   value: Any, op: str) -> Any:
    """Broadcast ``value`` from rank 0 down a binomial tree.

    Stage k: every informed rank ``r < 2^k`` forwards to ``r + 2^k``.
    Returns the broadcast value on every rank.
    """
    mask = 1
    # Receive exactly once: from the parent whose bit is my lowest set bit.
    while mask < nranks:
        if rank & mask:
            value = _trecv(world, context, rank, rank - mask, tag, op)
            break
        mask <<= 1
    # Forward to children below my lowest set bit (rank 0 forwards at
    # every stage).
    mask >>= 1
    while mask > 0:
        if rank + mask < nranks:
            _tsend(world, context, rank, rank + mask, tag, value)
        mask >>= 1
    return value


def binomial_gather(world, context: str, rank: int, nranks: int, tag: int,
                    value: Any, op: str) -> dict[int, Any] | None:
    """Gather one value per rank up a binomial tree to rank 0.

    Returns the complete ``{rank: value}`` dict at rank 0, None elsewhere.
    Each node merges its children's partial dicts before forwarding, so
    every edge carries its subtree exactly once.
    """
    acc: dict[int, Any] = {rank: value}
    mask = 1
    while mask < nranks:
        if rank & mask:
            _tsend(world, context, rank, rank - mask, tag, acc)
            return None
        if rank + mask < nranks:
            acc.update(_trecv(world, context, rank, rank + mask, tag, op))
        mask <<= 1
    return acc


def tree_allgather(world, context: str, rank: int, nranks: int, tag: int,
                   value: Any, op: str) -> list[Any]:
    """Gather to rank 0 then broadcast: every rank ends with the full
    by-rank value list.  Uses tags ``tag`` and ``tag + 1``; ``op`` names
    the blocked routine in deadlock reports and deadline errors."""
    acc = binomial_gather(world, context, rank, nranks, tag, value, op)
    ordered = ([acc[r] for r in range(nranks)]
               if acc is not None else None)
    return binomial_bcast(world, context, rank, nranks, tag + 1, ordered, op)

