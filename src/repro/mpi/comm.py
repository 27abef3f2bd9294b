"""The simulated communicator.

:class:`SimComm` exposes an mpi4py-flavoured API (lowercase object methods)
over the thread-backed :class:`~repro.mpi.world.SimWorld`.  Payloads are
copied at send time (MPI value semantics), transferred for real between
rank threads, and every operation charges its modeled network cost to the
rank's :class:`~repro.mpi.accounting.MPIAccounting` ledger under the MPI
routine name — those charges are the per-routine rows of the paper's
Figure 3 profile and the ghost-cell timings of Figure 9.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Sequence

import numpy as np

from repro.faults.plan import DROP as FAULT_DROP
from repro.faults.plan import DUPLICATE as FAULT_DUPLICATE
from repro.mpi import collectives as coll
from repro.mpi.message import (ANY_SOURCE, ANY_TAG, LOST, RETRANSMITTED,
                               Envelope, Status, copy_payload)
from repro.mpi.network import payload_nbytes
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.world import WORLD_CONTEXT, SimMPIError, SimWorld
from repro.obs.span import CAT_MPI, CAT_MPI_WAIT, Span

# Reduction operators accepted by reduce/allreduce/scan, by name.
_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
}


class SimComm:
    """A communicator bound to one rank of a :class:`SimWorld`.

    Each rank thread constructs (or is handed) its own ``SimComm``; the
    instance is not shared across rank threads.  ``dup()`` derives a child
    communicator with an isolated message context, as AMRMesh does in the
    paper (``MPI_Comm_dup`` appears in Figure 3).
    """

    def __init__(self, world: SimWorld, rank: int, context: str = WORLD_CONTEXT) -> None:
        if not (0 <= rank < world.nranks):
            raise ValueError(f"rank {rank} out of range for nranks={world.nranks}")
        self.world = world
        self.rank = int(rank)
        self.context = context
        self._coll_seq = 0
        self._dup_count = 0
        self._obs = world.obs[self.rank] if world.obs is not None else None
        self._san = world.sanitizer
        # At thousands of MPI ops per step a ledger lookup per charge
        # shows up, so the hot path resolves each routine's ledger row
        # once and reuses its charger.
        self._routines: dict[str, Callable[[float], None]] = {}
        self._bytes_counter = (
            self._obs.metrics.counter(
                "mpi_bytes_sent_total", "payload bytes posted for send")
            if self._obs is not None else None)

    # ------------------------------------------------------------ basics
    @property
    def size(self) -> int:
        return self.world.nranks

    def Get_rank(self) -> int:  # mpi4py spelling
        return self.rank

    def Get_size(self) -> int:  # mpi4py spelling
        return self.size

    @property
    def accounting(self):
        """This rank's MPI time ledger."""
        return self.world.accounting[self.rank]

    @property
    def rng(self) -> np.random.Generator:
        """This rank's jitter RNG stream."""
        return self.world.rngs[self.rank]

    @property
    def obs(self):
        """This rank's observability state (None when tracing is off)."""
        return self._obs

    def _span_ctx(self, name: str, category: str,
                  **attrs: Any) -> ContextManager[Span | None]:
        """Span around one MPI op, or a no-op when tracing is off.

        MPI spans are never sampled out: a missing send span would orphan
        the cross-rank edge to its receive.  The ops a ghost exchange
        posts by the thousand per step (isend, irecv) call the tracer's
        ``start``/``end`` themselves, without a context manager.
        """
        if self._obs is None:
            return nullcontext(None)
        return self._obs.tracer.span(name, category, **attrs)

    def charge(self, routine: str, cost_us: float) -> None:
        """Record modeled time for ``routine`` on this rank.

        An attached fault injector may add a stall: extra modeled
        microseconds charged to the same routine, making this rank a
        straggler in the ledgers without slowing the run in real time.
        """
        injector = self.world.injector
        if injector is not None:
            cost_us += injector.on_mpi_op(self.rank, routine)
        record = self._routines.get(routine)
        if record is None:
            record = self._routines[routine] = self.accounting.charger(routine)
        record(cost_us)

    # ---------------------------------------------------- point-to-point
    def _post_send(self, obj: Any, dest: int, tag: int,
                   span: Span | None = None) -> int:
        net = self.world.network
        nbytes = payload_nbytes(obj)
        env = Envelope(
            source=self.rank,
            dest=dest,
            tag=tag,
            payload=copy_payload(obj),
            nbytes=nbytes,
            cost_us=net.p2p_cost(nbytes, self.rng),
        )
        if self._obs is not None:
            # Stamp the sender's span context into the envelope and mark
            # the send span as the source of causal edge ``env.seq`` —
            # the matched receive becomes its sink on another rank.
            tracer = self._obs.tracer
            ctx_span = span if span is not None else tracer.current()
            env.trace_ctx = (self.rank, ctx_span.span_id) if ctx_span else None
            tracer.flow_out(env.seq, span)
            self._bytes_counter.inc(nbytes)
        if self._san is not None:
            self._san.on_send(self.rank, self.context, env)
        injector = self.world.injector
        if injector is not None:
            action = injector.on_send(self.rank, dest, tag)
            if action.kind == FAULT_DROP:
                if self.world.policy is None:
                    return nbytes  # gone: the receiver times out
                # The transport's retransmission (or the evidence of a
                # loss) lands where the message would have, at its seq.
                env.fate = RETRANSMITTED if action.recoverable else LOST
            elif action.kind == FAULT_DUPLICATE:
                self.world.deliver(self.context, env)
                # Same send sequence number: a resilient receiver
                # deduplicates; a non-resilient one sees a spurious extra
                # message, exactly like a retransmission race.
                self.world.deliver(self.context, Envelope(
                    source=env.source, dest=env.dest, tag=env.tag,
                    payload=copy_payload(env.payload), nbytes=env.nbytes,
                    cost_us=env.cost_us, seq=env.seq, trace_ctx=env.trace_ctx,
                ))
                return nbytes
            elif action.kind is not None:  # delay
                env.cost_us = env.cost_us * action.delay_factor + action.delay_us
        self.world.deliver(self.context, env)
        return nbytes

    def _wait_recv(self, routine: str, source: int, tag: int) -> Envelope:
        """Block in ``routine`` until one (source, tag) message matches,
        and consume it."""
        return self.world.wait_recvs(
            self.rank, [(self.context, source, tag)], op=routine,
            charge=self.charge)[0]

    def _send(self, routine: str, obj: Any, dest: int, tag: int) -> None:
        """Copy, deliver and charge the injection cost under ``routine``."""
        obs = self._obs
        sp = (obs.tracer.start(routine, CAT_MPI, dest=dest, tag=tag)
              if obs is not None else None)
        try:
            self._post_send(obj, dest, tag, span=sp)
            self.charge(routine, self.world.network.min_cost_us)
        finally:
            if sp is not None:
                obs.tracer.end(sp)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send: copy, deliver, charge injection cost."""
        self._send("MPI_Send", obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete immediately (payload copied)."""
        self._send("MPI_Isend", obj, dest, tag)
        return SendRequest(self)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> Any:
        """Blocking receive; charged the message's modeled transfer cost."""
        with self._span_ctx("MPI_Recv", CAT_MPI_WAIT, source=source, tag=tag) as sp:
            env = self._wait_recv("MPI_Recv", source, tag)
            if self._obs is not None:
                self._obs.tracer.flow_in(env.seq, sp)
            self.charge("MPI_Recv", env.cost_us)
            if status is not None:
                status.source, status.tag, status.nbytes = env.source, env.tag, env.nbytes
            return env.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Post a nonblocking receive (cost charged at completion)."""
        obs = self._obs
        sp = (obs.tracer.start(  # ra: noqa[RA001] — a span, closed by end()
                  "MPI_Irecv", CAT_MPI, source=source, tag=tag)
              if obs is not None else None)
        try:
            self.charge("MPI_Irecv", self.world.network.min_cost_us)
        finally:
            if sp is not None:
                obs.tracer.end(sp)
        req = RecvRequest(self, source, tag)
        if self._san is not None:
            # Registered so a request never waited/tested to completion is
            # reported as a leak at finalize.
            self._san.on_post_recv(self.rank, req)
        return req

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Status | None = None) -> bool:
        """Non-blocking probe: is a matching message waiting?

        Does not consume the message; fills ``status`` when one matches.
        """
        env = self.world.try_match(self.context, self.rank, source, tag)
        if env is None:
            return False
        # Probing must not dequeue: put it back at the front of matching
        # order by re-delivering (seq ordering keeps FIFO per source/tag
        # because try_match popped the earliest match).  The pop marked the
        # seq consumed for dedup purposes; undo that or the re-delivered
        # envelope would be discarded as a duplicate.
        with self._span_ctx("MPI_Iprobe", CAT_MPI, source=source, tag=tag):
            self.world.deliver(self.context, env)
            self.world.unmark_consumed(self.context, self.rank, env.seq)
            self.charge("MPI_Iprobe", self.world.network.min_cost_us)
        if status is not None:
            status.source, status.tag, status.nbytes = env.source, env.tag, env.nbytes
        return True

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None) -> None:
        """Blocking probe: wait until a matching message is available."""
        with self._span_ctx("MPI_Probe", CAT_MPI_WAIT, source=source, tag=tag):
            env = self.world.wait_recvs(
                self.rank, [(self.context, source, tag)], op="MPI_Probe")[0]
            # No flow_in (or recovery charge) here: the probe does not
            # consume the message, the eventual receive does.
            self.world.deliver(self.context, env)
            self.world.unmark_consumed(self.context, self.rank, env.seq)
            self.charge("MPI_Probe", self.world.network.min_cost_us)
        if status is not None:
            status.source, status.tag, status.nbytes = env.source, env.tag, env.nbytes

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free under the buffered model)."""
        with self._span_ctx("MPI_Sendrecv", CAT_MPI_WAIT, dest=dest) as sp:
            self._post_send(obj, dest, sendtag, span=sp)
            env = self._wait_recv("MPI_Sendrecv", source, recvtag)
            if self._obs is not None:
                self._obs.tracer.flow_in(env.seq, sp)
            self.charge("MPI_Sendrecv", env.cost_us + self.world.network.min_cost_us)
            return env.payload

    # ------------------------------------------------------- collectives
    def _collective(self, routine: str, value: Any = None) -> list[Any]:
        """Move one collective's values; returns them by rank.

        The one body every collective runs, on every backend: the
        per-communicator sequence number (so the ``(context, seq)``
        identity of the n-th collective is backend-independent), the span,
        the sanitizer's order check, the movement and the flow event all
        participants share.

        The movement is one :func:`~repro.mpi.collectives.tree_allgather`
        over the mailbox in the reserved transport context, on the
        collective's two tags ``[2*seq, 2*seq+1]``: a rank blocked in it
        blocks in the world's wait engine, under ``routine``.  ``value`` is
        copied once on entry (MPI value semantics) and every hop copies
        again, so nothing a rank gets back is its argument or aliases a
        peer's result.  The sanitizer's token (routine, op index, rolling
        op-sequence hash) rides inside the value as ``(token, value)``, so
        ranks that issued different routines still meet and raise instead
        of hanging to the deadline.
        """
        world, rank, san = self.world, self.rank, self._san
        seq = self._coll_seq
        self._coll_seq += 1
        with self._span_ctx(routine, CAT_MPI_WAIT, coll_seq=seq) as sp:
            value = copy_payload(value)
            if san is not None:
                value = (san.collective_token(rank, self.context, seq,
                                              routine), value)
            vals = coll.tree_allgather(
                world, coll.coll_context(self.context), rank, self.size,
                seq << 1, value, op=routine)
            if san is not None:
                san.collective_check(rank, self.context, seq,
                                     [v[0] for v in vals])
                vals = [v[1] for v in vals]
            if self._obs is not None:
                # All participants share one flow id; the analyzer draws
                # edges from the last arriver (who unblocked the tree) to
                # every other rank.
                self._obs.tracer.flow_collective(f"c:{self.context}:{seq}", sp)
        return vals

    def _charge_collective(self, routine: str, nbytes: int) -> None:
        """Charge one collective's modeled cost under its routine name (one
        jitter draw per call, so per-rank RNG streams stay aligned)."""
        self.charge(routine, self.world.network.collective_cost(
            nbytes, self.size, self.rng))

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._collective("MPI_Barrier")
        self._charge_collective("MPI_Barrier", 0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_root(root)
        result = self._collective(
            "MPI_Bcast", obj if self.rank == root else None)[root]
        self._charge_collective("MPI_Bcast", payload_nbytes(result))
        return obj if self.rank == root else result

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank at ``root`` (None elsewhere)."""
        self._check_root(root)
        vals = self._collective("MPI_Gather", obj)
        self._charge_collective("MPI_Gather", payload_nbytes(obj))
        return vals if self.rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one value per rank, everywhere."""
        vals = self._collective("MPI_Allgather", obj)
        self._charge_collective("MPI_Allgather", payload_nbytes(obj))
        return vals

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-P sequence from ``root``; each rank gets one item."""
        self._check_root(root)
        if self.rank == root and (objs is None or len(objs) != self.size):
            raise ValueError(f"scatter at root needs a length-{self.size} sequence")
        item = self._collective(
            "MPI_Scatter", objs if self.rank == root else None)[root][self.rank]
        self._charge_collective("MPI_Scatter", payload_nbytes(item))
        return item

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Each rank sends item j to rank j; returns the column addressed to it."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs a length-{self.size} sequence")
        vals = self._collective("MPI_Alltoall", objs)
        self._charge_collective("MPI_Alltoall", sum(payload_nbytes(o) for o in objs))
        return [vals[src][self.rank] for src in range(self.size)]

    def _reduce_values(self, vals: Any, op: str | Callable[[Any, Any], Any],
                       n: int) -> Any:
        """Combine ``vals[0] .. vals[n-1]`` in rank order, so every rank
        and every backend associates floating point alike."""
        fn = _OPS[op] if isinstance(op, str) else op
        acc = vals[0]
        for r in range(1, n):
            acc = fn(acc, vals[r])
        return acc

    def reduce(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum",
               root: int = 0) -> Any | None:
        """Reduce to ``root`` (None elsewhere)."""
        self._check_root(root)
        vals = self._collective("MPI_Reduce", obj)
        self._charge_collective("MPI_Reduce", payload_nbytes(obj))
        return (self._reduce_values(vals, op, self.size)
                if self.rank == root else None)

    def allreduce(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum") -> Any:
        """Reduce across all ranks; every rank returns the result."""
        vals = self._collective("MPI_Allreduce", obj)
        self._charge_collective("MPI_Allreduce", payload_nbytes(obj))
        return self._reduce_values(vals, op, self.size)

    def scan(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum") -> Any:
        """Inclusive prefix reduction over ranks 0..self.rank."""
        vals = self._collective("MPI_Scan", obj)
        self._charge_collective("MPI_Scan", payload_nbytes(obj))
        return self._reduce_values(vals, op, self.rank + 1)

    # -------------------------------------------------------------- misc
    def dup(self) -> "SimComm":
        """Duplicate the communicator into a fresh message context.

        Collective: all ranks must call it in matching order.
        """
        self._dup_count += 1
        child_context = f"{self.context}/dup{self._dup_count}"
        # Synchronize so no rank races ahead and sends into a context the
        # peer hasn't created; also verifies all ranks derived the same name.
        names = self._collective("MPI_Comm_dup", child_context)
        if any(n != child_context for n in names):
            raise SimMPIError(f"inconsistent dup order across ranks: {names}")
        self._charge_collective("MPI_Comm_dup", 0)
        return SimComm(self.world, self.rank, child_context)

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise ValueError(f"root {root} out of range for size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimComm(rank={self.rank}/{self.size}, context={self.context!r})"
