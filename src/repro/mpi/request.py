"""Nonblocking-communication requests and completion operations.

Completion charging convention: posting ``isend``/``irecv`` is cheap (the
sender pays a small injection overhead at post time); the modeled *transfer*
cost of a message is charged to whichever completion routine observes it
(``MPI_Wait``, ``MPI_Waitsome``, ``MPI_Waitall``, or a blocking
``MPI_Recv``).  This mirrors where time shows up in a real profile — the
paper's Figure 3 attributes ~25% of runtime to ``MPI_Waitsome`` invoked
from AMRMesh's ghost-cell updates.

When several messages complete in one wait call their transfer costs are
assumed to overlap on the network, so the call is charged the *maximum* of
the individual costs, not the sum.  A ``waitsome`` drain of one request
list is charged that maximum once, however its completions split into
calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.mpi.message import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.world import SimMPIError
from repro.obs.span import CAT_MPI_WAIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import SimComm


class Request:
    """Base request; concrete kinds are :class:`SendRequest` / :class:`RecvRequest`."""

    def __init__(self, comm: "SimComm") -> None:
        self._comm = comm
        self._complete = False
        self._cost_us = 0.0

    # -- completion cost of the message this request observed (0 for sends)
    @property
    def cost_us(self) -> float:
        return self._cost_us

    @property
    def complete(self) -> bool:
        return self._complete

    def test(self, status: Status | None = None) -> bool:
        """Non-blocking completion check; completes the request if possible."""
        raise NotImplementedError

    def wait(self, status: Status | None = None) -> Any:
        """Block until complete; returns the received object (None for sends)."""
        raise NotImplementedError


class SendRequest(Request):
    """Buffered-send request: the payload was copied at post time, so the
    request is complete as soon as it exists (MPI buffered semantics)."""

    def __init__(self, comm: "SimComm") -> None:
        super().__init__(comm)
        self._complete = True

    def test(self, status: Status | None = None) -> bool:
        return True

    def wait(self, status: Status | None = None) -> None:
        return None


class RecvRequest(Request):
    """Posted receive for (source, tag); completes when a match arrives."""

    def __init__(self, comm: "SimComm", source: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        super().__init__(comm)
        self.source = source
        self.tag = tag
        self._payload: Any = None

    @property
    def payload(self) -> Any:
        if not self._complete:
            raise SimMPIError("receive request not yet complete")
        return self._payload

    def _absorb(self, env, status: Status | None) -> None:
        self._payload = env.payload
        self._cost_us = env.cost_us
        self._complete = True
        obs = self._comm.obs
        if obs is not None:
            # Sink of the causal edge: bind to the enclosing wait span, or
            # to an instant marker when completed by a bare test().
            obs.tracer.flow_in(env.seq, obs.tracer.current())
        if status is not None:
            status.source, status.tag, status.nbytes = env.source, env.tag, env.nbytes

    def test(self, status: Status | None = None) -> bool:
        if self._complete:
            return True
        comm = self._comm
        env = comm.world.try_match(comm.context, comm.rank, self.source,
                                   self.tag, comm.charge)
        if env is None:
            return False
        self._absorb(env, status)
        return True

    def wait(self, status: Status | None = None) -> Any:
        if not self._complete:
            with self._comm._span_ctx("MPI_Wait", CAT_MPI_WAIT,
                                      source=self.source, tag=self.tag):
                self._absorb(
                    self._comm._wait_recv("MPI_Wait", self.source, self.tag),
                    status)
                self._comm.charge("MPI_Wait", self._cost_us)
        return self._payload


def _wait(requests: Sequence[Request], want_all: bool, op: str) -> list[int]:
    """Block in ``op`` until some (or all) requests complete; return the
    newly completed indices in completion order.

    All requests must belong to the same rank's communicators; the
    blocking itself is :meth:`SimWorld.wait_recvs`.
    """
    if not requests:
        return []
    comm = requests[0]._comm
    for r in requests:
        if r._comm.rank != comm.rank or r._comm.world is not comm.world:
            raise SimMPIError("all requests in a wait call must belong to one rank")
    pending = [i for i, r in enumerate(requests) if not r.complete]
    if not pending:
        return []
    got = comm.world.wait_recvs(
        comm.rank,
        [(requests[i]._comm.context, requests[i].source, requests[i].tag)
         for i in pending],
        want_all, op, comm.charge)
    for j, env in got.items():
        requests[pending[j]]._absorb(env, None)
    return [pending[j] for j in got]


def waitsome(requests: Sequence[Request]) -> list[int]:
    """Complete at least one pending request; return indices completed now.

    Charged to ``MPI_Waitsome``: the rise of the list's highest completed
    transfer cost.  Concurrent arrivals overlap, so a drain costs the
    largest cost among its requests - what ``waitall`` charges - however
    the scheduler splits its completions into calls.  Returns ``[]`` if
    every request was already complete (MPI's ``MPI_UNDEFINED`` case).
    """
    if not any(not r.complete for r in requests):
        return _wait(requests, False, "MPI_Waitsome")
    comm = requests[0]._comm
    high = max((r.cost_us for r in requests if r.complete), default=0.0)
    with comm._span_ctx("MPI_Waitsome", CAT_MPI_WAIT, n=len(requests)):
        done = _wait(requests, False, "MPI_Waitsome")
        top = max(requests[i].cost_us for i in done)
        comm.charge("MPI_Waitsome", max(0.0, top - high))
    return done


def waitall(requests: Sequence[Request]) -> None:
    """Complete all requests; charged to ``MPI_Waitall``."""
    if not requests:
        return
    comm = requests[0]._comm
    with comm._span_ctx("MPI_Waitall", CAT_MPI_WAIT, n=len(requests)):
        done = _wait(requests, True, "MPI_Waitall")
        cost = max((requests[i].cost_us for i in done), default=0.0)
        comm.charge("MPI_Waitall", cost)


def waitany(requests: Sequence[Request]) -> int:
    """Complete exactly one request; return its index (charged to ``MPI_Waitany``)."""
    if not requests:
        raise ValueError("waitany on empty request list")
    if all(r.complete for r in requests):
        raise SimMPIError("waitany: all requests already complete")
    comm = requests[0]._comm
    with comm._span_ctx("MPI_Waitany", CAT_MPI_WAIT, n=len(requests)):
        done = _wait(requests, False, "MPI_Waitany")
        idx = done[0]
        comm.charge("MPI_Waitany", requests[idx].cost_us)
    return idx
