"""Hierarchical (tree-structured) collective algorithms.

The simulator's original collectives all funnel through one flat
rendezvous slot: every rank deposits its value, every rank reads all P
values.  That is simple and correct, but it serializes 2(P-1) transfers
through a single coordinator — fine at the paper's 3 ranks, hopeless at
64.  This module provides the standard tree algorithms of switched-cluster
MPI implementations, expressed purely over the world's point-to-point
primitives (``deliver``/``wait_recvs``) so the same code moves data between
rank *threads* (thread backend) and rank *processes* (mp-shm backend):

* **binomial-tree broadcast / gather** — ``ceil(log2 P)`` stages, each
  doubling the informed (or halving the un-gathered) set;
* **recursive-doubling allgather** — ``ceil(log2 P)`` stages of pairwise
  exchange with partner ``vrank ^ 2^k`` (non-power-of-two rank counts use
  the standard pre/post fold onto the largest embedded power of two);
* **ring allgather** — ``P-1`` stages passing one rank's block around the
  ring; bandwidth-optimal for large payloads.

Transport envelopes move in a reserved ``__coll__:``-prefixed context with
zero modeled cost: they are *mechanism*, not *model*.  The modeled cost of
a hierarchical collective is charged once, under the collective's MPI
routine name, from the matching :class:`~repro.mpi.network.NetworkModel`
algorithm formula — so ledgers stay per-routine exactly as the paper's
Figure 3 expects, while the charged number reflects the selected
algorithm's stage structure.
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


def _trecv(world, context: str, rank: int, source: int, tag: int) -> Any:
    """Blocking transport receive: the world's wait engine with one want
    and no charge (transport envelopes are never dropped)."""
    return world.wait_recvs(rank, [(context, source, tag)])[0].payload


def _vrank(rank: int, root: int, nranks: int) -> int:
    """Virtual rank with ``root`` rotated to 0 (standard tree trick)."""
    return (rank - root) % nranks


def _arank(vrank: int, root: int, nranks: int) -> int:
    return (vrank + root) % nranks


def binomial_bcast(world, context: str, rank: int, nranks: int, tag: int,
                   value: Any, root: int = 0) -> Any:
    """Broadcast ``value`` from ``root`` down a binomial tree.

    Stage k: every informed virtual rank ``v < 2^k`` forwards to
    ``v + 2^k``.  Returns the broadcast value on every rank.
    """
    if nranks == 1:
        return value
    vr = _vrank(rank, root, nranks)
    mask = 1
    # Receive exactly once: from the parent whose bit is my lowest set bit.
    while mask < nranks:
        if vr & mask:
            parent = _arank(vr - mask, root, nranks)
            value = _trecv(world, context, rank, parent, tag)
            break
        mask <<= 1
    # Forward to children below my lowest set bit (root forwards at all
    # stages above its own).
    mask >>= 1
    while mask > 0:
        if vr + mask < nranks:
            child = _arank(vr + mask, root, nranks)
            _tsend(world, context, rank, child, tag, value)
        mask >>= 1
    return value


def binomial_gather(world, context: str, rank: int, nranks: int, tag: int,
                    value: Any, root: int = 0) -> dict[int, Any] | None:
    """Gather one value per rank up a binomial tree.

    Returns the complete ``{rank: value}`` dict at ``root``, None elsewhere.
    Each node merges its children's partial dicts before forwarding, so
    every edge carries its subtree exactly once.
    """
    acc: dict[int, Any] = {rank: value}
    if nranks == 1:
        return acc
    vr = _vrank(rank, root, nranks)
    mask = 1
    while mask < nranks:
        if vr & mask:
            parent = _arank(vr - mask, root, nranks)
            _tsend(world, context, rank, parent, tag, acc)
            return None
        if vr + mask < nranks:
            child = _arank(vr + mask, root, nranks)
            acc.update(_trecv(world, context, rank, child, tag))
        mask <<= 1
    return acc


def tree_allgather(world, context: str, rank: int, nranks: int, tag: int,
                   value: Any, root: int = 0) -> list[Any]:
    """Gather to ``root`` then broadcast: 2·log2(P) stages, every rank ends
    with the full by-rank value list.  The workhorse behind the process
    backend's rendezvous emulation and the sanitizer's token exchange."""
    acc = binomial_gather(world, context, rank, nranks, tag, value, root)
    ordered = ([acc[r] for r in range(nranks)]
               if acc is not None else None)
    return binomial_bcast(world, context, rank, nranks, tag + 1, ordered, root)


def recursive_doubling_allgather(world, context: str, rank: int, nranks: int,
                                 tag: int, value: Any,
                                 root: int = 0) -> list[Any]:
    """Allgather by recursive doubling; log2(P) pairwise exchange stages
    (symmetric: ``root`` is accepted for the common signature and unused).

    Non-power-of-two P: the trailing ``P - m`` ranks (m = largest power of
    two ≤ P) fold their values onto partners below m before the doubling
    stages and receive the finished list afterwards.
    """
    if nranks == 1:
        return [value]
    m = 1
    while m * 2 <= nranks:
        m *= 2
    extra = nranks - m
    acc: dict[int, Any] = {rank: value}
    if rank >= m:
        # Fold in: hand my value to my partner, wait for the final list.
        _tsend(world, context, rank, rank - m, tag, acc)
        return _trecv(world, context, rank, rank - m, tag + 1)
    if rank < extra:
        acc.update(_trecv(world, context, rank, rank + m, tag))
    mask = 1
    stage_tag = tag + 2
    while mask < m:
        partner = rank ^ mask
        # Deterministic pairwise exchange: both sides send, both receive.
        _tsend(world, context, rank, partner, stage_tag, acc)
        acc = {**acc, **_trecv(world, context, rank, partner, stage_tag)}
        mask <<= 1
        stage_tag += 1
    result = [acc[r] for r in range(nranks)]
    if rank < extra:
        _tsend(world, context, rank, rank + m, tag + 1, result)
    return result


def ring_allgather(world, context: str, rank: int, nranks: int, tag: int,
                   value: Any, root: int = 0) -> list[Any]:
    """Allgather around a ring: P-1 stages, each passing one block on
    (symmetric: ``root`` is accepted for the common signature and unused).

    Stage s: send the block that originated at ``rank - s`` to the right
    neighbour, receive the block that originated at ``rank - s - 1`` from
    the left — every link carries 1/P of the data per stage.
    """
    blocks: list[Any] = [None] * nranks
    blocks[rank] = value
    if nranks == 1:
        return blocks
    right = (rank + 1) % nranks
    left = (rank - 1) % nranks
    for s in range(nranks - 1):
        outgoing = (rank - s) % nranks
        _tsend(world, context, rank, right, tag, blocks[outgoing])
        incoming = (rank - s - 1) % nranks
        blocks[incoming] = _trecv(world, context, rank, left, tag)
    return blocks


#: collective-algorithm families selectable via ``collectives=...``:
#: ``None`` keeps the legacy rendezvous + generic log-tree cost model
#: (bitwise-identical to all prior releases); ``"flat"`` keeps the
#: rendezvous but charges its honest linear-in-P cost; ``"hier"`` moves
#: data down real trees and charges the per-algorithm cost.
ALGORITHMS = (None, "flat", "hier")
