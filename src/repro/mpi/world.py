"""Shared state backing one simulated MPI job.

A :class:`SimWorld` holds, for a job of P ranks:

* per-rank mailboxes (message queues) with condition variables, and the
  one wait engine a rank blocks in (:meth:`SimWorld.wait_recvs`): every
  blocking receive, probe and wait, and every collective, whose values
  move by :func:`~repro.mpi.collectives.tree_allgather` over the same
  mailboxes,
* per-rank :class:`~repro.mpi.accounting.MPIAccounting` ledgers and jitter
  RNG streams,
* an abort flag so that when one rank fails, ranks blocked in communication
  wake up and raise instead of deadlocking,
* optionally, a :class:`~repro.faults.injector.FaultInjector` plus a
  :class:`~repro.faults.policy.ResiliencePolicy`: an injected drop is a
  mailbox entry at its send seq (retransmitted, or a tombstone for a loss),
  receivers deduplicate injected duplicates by send sequence number, and
  per-rank :class:`~repro.faults.policy.ResilienceStats` count recovery
  activity (:meth:`SimWorld.book`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.analysis.sanitize import Sanitizer
from repro.faults.policy import CommFailure, ResiliencePolicy, ResilienceStats
from repro.mpi.accounting import MPIAccounting
from repro.mpi.backend import JobSpec
from repro.mpi.collectives import COLL_CONTEXT_PREFIX
from repro.mpi.message import ANY_SOURCE, LOST, RETRANSMITTED, Envelope
from repro.obs.runtime import build_obs
from repro.util.rng import spawn_rngs
from repro.util.timebase import now_us

WORLD_CONTEXT = "world"

#: resilience event -> (the ResilienceStats fields it counts, its entry in
#: the fault injector's record, its obs counter and the counter's help)
_EVENTS: dict[str, tuple[tuple[str, ...], str, str, str]] = {
    "recovered": (("recovered", "retry_rounds"), "mpi.recovered",
                  "mpi_recovered_total",
                  "dropped envelopes recovered by retransmission"),
    "deduplicated": (("deduplicated",), "mpi.deduplicated",
                     "mpi_deduplicated_total",
                     "injected duplicates discarded by receivers"),
    "comm_failure": (("failures",), "mpi.failure", "mpi_comm_failures_total",
                     "typed communication failures raised"),
    "component_retry": (("component_retries",), "component.retry",
                        "component_retries_total",
                        "transient component failures retried"),
    "component_failure": (("failures",), "component.failure",
                          "component_failures_total",
                          "component failures that outlasted every retry"),
}


class SimMPIError(RuntimeError):
    """Raised on simulator-level failures (deadlock timeout, abort)."""


class SimWorld:
    """All cross-rank shared state for one simulated job, built from the
    job's one declaration (:class:`~repro.mpi.backend.JobSpec`)."""

    #: the backend name a run record carries as its identity
    backend = "thread"

    def __init__(self, spec: JobSpec) -> None:
        self.nranks = spec.nranks
        self.seed = spec.seed
        self.network = spec.network
        self.timeout_s = spec.timeout_s
        self.rngs = spawn_rngs(spec.seed, self.nranks)
        self.accounting = [MPIAccounting() for _ in range(self.nranks)]
        # Per-rank observability state (span tracer + metrics registry),
        # or None when tracing is off.
        self.obs = build_obs(self.nranks, spec.obs_config)
        for ro, ledger in zip(self.obs or (), self.accounting):
            ro.ledger = ledger
        # Runtime correctness checkers (collective ordering, p2p hygiene,
        # deadlock and ghost-race detection), or None when off.
        self.sanitizer = (Sanitizer(self.nranks, spec.sanitize, obs=self.obs)
                          if spec.sanitize is not None else None)

        # Fault injection and recovery (both optional and independent: an
        # injector without a policy reproduces failures un-handled; a
        # policy without an injector only types a collective's deadline,
        # on every backend: see wait_recvs).
        self.injector = spec.injector
        if self.injector is not None:
            # Fault marks go on each rank's own tracer.
            self.injector.obs = self.obs
        self.policy: ResiliencePolicy | None = spec.policy
        self.resilience = [ResilienceStats() for _ in range(self.nranks)]

        # Point-to-point: mailbox per (context, dest rank); one condition
        # per dest rank shared by all contexts.
        self._mail_conds = [threading.Condition() for _ in range(self.nranks)]
        self._mailboxes: dict[tuple[str, int], list[Envelope]] = {}
        # The consumed-seq sets receivers deduplicate against, keyed like
        # mailboxes and guarded by the destination's condition.
        self._consumed: dict[tuple[str, int], set[int]] = {}

        self._aborted = False
        self._abort_reason: str | None = None

        #: the job's run token, attached by ``ThreadBackend.launch`` only:
        #: a rank thread holds it whenever it executes and gives it up only
        #: inside :meth:`off_token`.  ``None`` (a world built by hand, a
        #: ``ShmWorld``) means ranks are not serialised.
        self.run_token: threading.Lock | None = None

    # --------------------------------------------------------- run token
    @contextmanager
    def off_token(self, rank: int) -> Iterator[None]:
        """Run the body with ``rank``'s run token released.

        Everything a rank blocks in goes through here (the park seam
        below, a failed poll, and rank code that sleeps outside
        ``repro.mpi``), so a blocked rank lets its peers run instead of
        freezing them.  With observability on, the time spent queued to
        get the token back is added to the enclosing span's ``sched_us``,
        which the critical-path analyzer reports as what the thread
        scheduler cost.  The body must hold no lock a running rank may
        take: the lock order is token before condition.  A no-op on a
        world without a token.
        """
        token = self.run_token
        if token is None:
            yield
            return
        token.release()
        try:
            yield
        finally:
            t_queued = now_us() if self.obs is not None else None
            token.acquire()
            if t_queued is not None:
                span = self.obs[rank].tracer.current()
                if span is not None:
                    span.attrs["sched_us"] = (span.attrs.get("sched_us", 0.0)
                                              + now_us() - t_queued)

    def _park(self, rank: int, cond: threading.Condition,
              wait_s: float) -> None:
        """Sleep on ``cond`` (held exactly once) for at most ``wait_s``:
        the one place a rank blocks on the world."""
        if self.run_token is None:
            cond.wait(wait_s)
            return
        try:
            with self.off_token(rank):
                try:
                    cond.wait(wait_s)
                finally:
                    # Token before condition: the token's holder takes
                    # conditions to deliver, so queue with none held.
                    cond.release()
        finally:
            cond.acquire()

    # ------------------------------------------------------------- abort
    def abort(self, reason: str) -> None:
        """Mark the job failed and wake every blocked rank."""
        self._aborted = True
        self._abort_reason = reason
        for cond in self._mail_conds:
            with cond:
                cond.notify_all()

    def _check_abort(self) -> None:
        if self._aborted:
            raise SimMPIError(f"simulated MPI job aborted: {self._abort_reason}")

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def abort_reason(self) -> str | None:
        return self._abort_reason

    # ----------------------------------------------------- point-to-point
    def deliver(self, context: str, env: Envelope) -> None:
        """Place an envelope in the destination's mailbox and wake it."""
        if not (0 <= env.dest < self.nranks):
            raise ValueError(f"invalid destination rank {env.dest} (nranks={self.nranks})")
        cond = self._mail_conds[env.dest]
        with cond:
            self._mailboxes.setdefault((context, env.dest), []).append(env)
            if self.sanitizer is not None:
                # A registered wait by the destination is now stale: it must
                # re-check its mailbox before counting as deadlocked.
                self.sanitizer.notify_progress(env.dest)
            cond.notify_all()

    def try_match(self, context: str, rank: int, source: int, tag: int,
                  charge: Callable[[str, float], None] | None = None,
                  ) -> Envelope | None:
        """Non-blocking: pop the first mailbox envelope matching (source,
        tag), settled as :meth:`wait_recvs` settles it."""
        cond = self._mail_conds[rank]
        with cond:
            env = self._pop_locked(context, rank, source, tag)
        if env is not None:
            return self._settle(rank, context, env, charge)
        if self.run_token is not None:
            # A poll loop gets no pre-emption under the token: give a
            # queued rank the interpreter before reporting "nothing yet".
            with self.off_token(rank):
                time.sleep(0)
        return None

    def recv_waits_on(self, rank: int, source: int) -> set[int]:
        """Ranks whose progress could satisfy a receive from ``source``."""
        if source == ANY_SOURCE:
            return set(range(self.nranks)) - {rank}
        return {source}

    def wait_recvs(self, rank: int, wants: Sequence[tuple[str, int, int]],
                   want_all: bool = True, op: str = "MPI_Recv",
                   charge: Callable[[str, float], None] | None = None,
                   ) -> dict[int, Envelope]:
        """Block ``rank`` until some (or all) of its posted receives match.

        The one place that knows how a rank blocks; every blocking receive,
        probe, wait and collective transport hop comes through here.
        ``wants`` are ``(context, source, tag)`` triples; returns
        ``{index: envelope}`` in completion order — every want when
        ``want_all``, else at least one.  ``op`` names the blocked routine
        (a collective's, for its hops) in deadlock reports and deadline
        errors.  ``charge`` is the rank's
        :meth:`~repro.mpi.comm.SimComm.charge`, passed by a caller that
        consumes what it matches (probes and transport hops pass none).

        An aborted job raises, and the whole call is capped by the one hard
        deadline, ``timeout_s`` from entry.  Reaching it is the simulator's
        plain timeout, except for a collective's hop under a resilience
        policy: that is a typed :class:`CommFailure`, booked like every
        other failure (a peer that never joins a collective is a failed
        communication, not a simulator error).  Nothing else here reads the
        clock: an injected drop under a resilience policy sits in the
        mailbox at its seq, so a matched entry is settled on the evidence
        it carries (:meth:`_settle`) the moment it is popped.  Each sleep
        registers the pending wants with the deadlock detector, which sees
        every message in flight, dropped ones included.
        """
        deadline = time.monotonic() + self.timeout_s
        san = self.sanitizer
        got: dict[int, Envelope] = {}
        pending = dict(enumerate(wants))
        cond = self._mail_conds[rank]
        try:
            with cond:
                while True:
                    self._check_abort()
                    for i, (context, source, tag) in pending.items():
                        env = self._pop_locked(context, rank, source, tag)
                        if env is not None:
                            got[i] = self._settle(rank, context, env, charge)
                    pending = {i: w for i, w in pending.items() if i not in got}
                    if not pending or (got and not want_all):
                        return got
                    wait_s = deadline - time.monotonic()
                    if wait_s <= 0.0:
                        what = f"{op} waiting for {self._describe(pending)}"
                        if self.policy is not None and any(
                                c.startswith(COLL_CONTEXT_PREFIX)
                                for c, _, _ in pending.values()):
                            self.book(rank, "comm_failure")
                            raise CommFailure(
                                f"rank {rank}: {what} incomplete after "
                                f"{self.timeout_s}s")
                        raise SimMPIError(
                            f"rank {rank} timed out after {self.timeout_s}s in "
                            f"{what} — likely deadlock")
                    if san is not None:
                        waits_on: set[int] = set()
                        for _, source, _ in pending.values():
                            waits_on |= self.recv_waits_on(rank, source)
                        san.enter_wait(rank, op, self._describe(pending),
                                       waits_on)
                        san.check_deadlock(rank)
                        wait_s = min(wait_s, san.config.deadlock_poll_s)
                    self._park(rank, cond, wait_s)
        finally:
            if san is not None:
                san.exit_wait(rank)

    @staticmethod
    def _describe(pending: dict[int, tuple[str, int, int]]) -> str:
        """What a blocked rank waits for, in the caller's terms: a
        collective's hop (one want, on its collective's tags ``2*seq`` and
        ``2*seq+1``) is named by its collective and the user's context."""
        context, source, tag = next(iter(pending.values()))
        if context.startswith(COLL_CONTEXT_PREFIX):
            return (f"(collective #{tag >> 1}, context="
                    f"{context[len(COLL_CONTEXT_PREFIX):]!r}, "
                    f"from rank {source})")
        recvs = ", ".join(f"(source={s}, tag={t}, context={c!r})"
                          for c, s, t in pending.values())
        return f"({len(pending)} pending recv(s): {recvs})"

    def _settle(self, rank: int, context: str, env: Envelope,
                charge: Callable[[str, float], None] | None) -> Envelope:
        """Act on the evidence a matched mailbox entry carries.

        A tombstone raises a typed :class:`CommFailure` for whoever matched
        it.  A retransmitted entry is charged ``MPI_Retransmit`` and booked
        as recovered by the receive that consumes it (the one passing
        ``charge``); a probe leaves that to the receive after it.
        """
        if env.fate == LOST:
            self.book(rank, "comm_failure")
            raise CommFailure(
                f"rank {rank}: receive (source={env.source}, tag={env.tag}, "
                f"context={context!r}) matched a message that was "
                "unrecoverably dropped")
        if env.fate == RETRANSMITTED and charge is not None:
            charge("MPI_Retransmit", self.policy.retransmit_cost_us)
            self.book(rank, "recovered")
        return env

    def _pop_locked(self, context: str, rank: int, source: int, tag: int) -> Envelope | None:
        box = self._mailboxes.get((context, rank))
        if not box:
            return None
        dedup = self.policy is not None and self.injector is not None
        while True:
            # Match by lowest send sequence number, not list position:
            # probes may re-deliver envelopes out of order, and MPI's
            # non-overtaking rule is defined on send order.
            best_i = -1
            for i, env in enumerate(box):
                if env.matches(source, tag) and (best_i < 0 or env.seq < box[best_i].seq):
                    best_i = i
            if best_i < 0:
                return None
            env = box.pop(best_i)
            if dedup:
                consumed = self._consumed.setdefault((context, rank), set())
                if env.seq in consumed:
                    # An injected duplicate of a message already received:
                    # discard and keep looking.
                    self.book(rank, "deduplicated")
                    continue
                consumed.add(env.seq)
            return env

    def discard_trailing_duplicates(self, rank: int) -> None:
        """End of ``rank``'s run, on its own thread, before the sanitizer's
        leak check: discard and book ``deduplicated`` each injected
        duplicate that arrived after its original was consumed (no later
        receive pops it).  Seqs are remembered only where receivers
        deduplicate; anything else left over is still a leak."""
        with self._mail_conds[rank]:
            for (context, dest), consumed in list(self._consumed.items()):
                if dest == rank:
                    box = self._mailboxes[context, rank]
                    keep = [env for env in box if env.seq not in consumed]
                    for _ in range(len(box) - len(keep)):
                        self.book(rank, "deduplicated")
                    box[:] = keep

    def unmark_consumed(self, context: str, rank: int, seq: int) -> None:
        """Forget that ``seq`` was consumed (probe paths re-deliver the
        envelope they popped, which must stay receivable)."""
        cond = self._mail_conds[rank]
        with cond:
            self._consumed.get((context, rank), set()).discard(seq)

    def pending_count(self, context: str, rank: int) -> int:
        """Number of undelivered envelopes waiting for ``rank`` (testing aid)."""
        cond = self._mail_conds[rank]
        with cond:
            return len(self._mailboxes.get((context, rank), []))

    def leftover_envelopes(self, rank: int) -> list[tuple[str, Envelope]]:
        """Every undelivered envelope still addressed to ``rank``, across
        all contexts (sanitizer finalize: unconsumed-message detection)."""
        cond = self._mail_conds[rank]
        out: list[tuple[str, Envelope]] = []
        with cond:
            for (context, dest), box in self._mailboxes.items():
                if dest == rank:
                    out.extend((context, env) for env in box)
        return out

    # -------------------------------------------------------- resilience
    def book(self, rank: int, event: str, **labels: str) -> None:
        """Count one resilience event (a key of ``_EVENTS``) everywhere it
        is counted: the rank's :class:`ResilienceStats`, the fault
        injector's record and the rank's obs counter, labelled with
        ``labels``.  Every recovery, dedup, failure and component-retry
        site books through here."""
        fields, mark, metric, help_ = _EVENTS[event]
        stats = self.resilience[rank]
        for name in fields:
            setattr(stats, name, getattr(stats, name) + 1)
        if self.injector is not None:
            self.injector.note(rank, mark)
        if self.obs is not None:
            self.obs[rank].metrics.counter(metric, help_, **labels).inc()
