"""Shared state backing one simulated MPI job.

A :class:`SimWorld` holds, for a job of P ranks:

* per-rank mailboxes (point-to-point message queues) with condition
  variables for blocking receives,
* a slot table implementing the collective exchange primitive on which all
  collectives (barrier/bcast/reduce/allgather/...) are built,
* per-rank :class:`~repro.mpi.accounting.MPIAccounting` ledgers and jitter
  RNG streams,
* an abort flag so that when one rank fails, ranks blocked in communication
  wake up and raise instead of deadlocking,
* optionally, a :class:`~repro.faults.injector.FaultInjector` plus a
  :class:`~repro.faults.policy.ResiliencePolicy`: dropped envelopes land in
  a per-destination retransmission buffer (recoverable) or a tombstone list
  (lost forever), receivers deduplicate injected duplicates by send
  sequence number, and per-rank
  :class:`~repro.faults.policy.ResilienceStats` count recovery activity.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.sanitize import Sanitizer
from repro.faults.policy import CommFailure, ResiliencePolicy, ResilienceStats
from repro.mpi.accounting import MPIAccounting
from repro.mpi.backend import JobSpec
from repro.mpi.message import ANY_SOURCE, Envelope
from repro.obs.runtime import build_obs
from repro.util.rng import spawn_rngs
from repro.util.timebase import now_us

WORLD_CONTEXT = "world"


class SimMPIError(RuntimeError):
    """Raised on simulator-level failures (deadlock timeout, abort)."""


class _CollectiveSlot:
    """Rendezvous slot for one collective call instance."""

    __slots__ = ("values", "deposited", "readers", "ready")

    def __init__(self) -> None:
        self.values: dict[int, Any] = {}
        self.deposited = 0
        self.readers = 0
        self.ready = False


def _stamp(obs: Any, attr: str, since_us: float) -> None:
    """Add the time elapsed since ``since_us`` to ``attr`` of the span the
    rank is in (the critical-path analyzer splits such attributes out)."""
    span = obs.tracer.current()
    if span is not None:
        span.attrs[attr] = span.attrs.get(attr, 0.0) + now_us() - since_us


class _Rounds:
    """Clock of one blocking call: the hard deadline every blocking
    operation is capped by from entry, plus the bounded retry rounds a
    resilience policy adds on top.

    Shared by the mailbox wait and the rendezvous wait so round counting,
    the ``mpi_retry_rounds_total`` metric and the ``retry_us`` span stamp
    (which the critical-path analyzer splits into its retry bucket) are
    done once for both kinds.  ``round_s`` maps a round index to its
    length in seconds; ``None`` means the only round is the hard deadline.
    """

    def __init__(self, world: "SimWorld", rank: int,
                 round_s: Callable[[int], float] | None) -> None:
        now = time.monotonic()
        self.deadline = now + world.timeout_s
        self.attempt = 0
        self._round_s = round_s
        self._next = now + round_s(0) if round_s is not None else math.inf
        self._stats = world.resilience[rank]
        self._obs = world.obs[rank] if world.obs is not None else None
        self._t_retry_us: float | None = None

    def expired(self, now: float) -> bool:
        """Count one retry round if the current one ran out."""
        if now < self._next:
            return False
        self.attempt += 1
        self._stats.retry_rounds += 1
        if self._t_retry_us is None:
            self._t_retry_us = now_us()
        if self._obs is not None:
            self._obs.metrics.counter(
                "mpi_retry_rounds_total", "bounded retry rounds").inc()
        self._next = now + self._round_s(self.attempt)
        return True

    def stop(self) -> None:
        """Budget spent without evidence of loss: a slow peer is not a
        failure, only the hard deadline remains."""
        self._next = math.inf

    def wait_s(self, now: float) -> float:
        return max(0.0, min(self.deadline - now, self._next - now, 0.5))

    def stamp(self) -> None:
        """Accumulate the time spent past the first round on the
        enclosing span (call on every way out)."""
        if self._t_retry_us is not None and self._obs is not None:
            _stamp(self._obs, "retry_us", self._t_retry_us)


class SimWorld:
    """All cross-rank shared state for one simulated job, built from the
    job's one declaration (:class:`~repro.mpi.backend.JobSpec`)."""

    def __init__(self, spec: JobSpec) -> None:
        self.nranks = spec.nranks
        self.network = spec.network
        #: collective-algorithm family: None (legacy rendezvous model),
        #: "flat" (rendezvous, honest linear cost), "hier" (tree algorithms)
        self.collectives = spec.collectives
        self.timeout_s = spec.timeout_s
        self.rngs = spawn_rngs(spec.seed, self.nranks)
        self.accounting = [MPIAccounting() for _ in range(self.nranks)]
        # Per-rank observability state (span tracer + metrics registry),
        # or None when tracing is off.
        self.obs = build_obs(self.nranks, spec.obs_config)
        if self.obs is not None:
            # Flight recorders tap the MPI ledger: every modeled charge
            # lands in the rank's black-box ring.  (Listeners are runtime
            # wiring — MPIAccounting drops them on pickle, so mp-shm
            # workers re-wire in their own world constructions.)
            for r, ro in enumerate(self.obs):
                if ro.recorder is not None:
                    self.accounting[r].add_listener(ro.recorder.on_mpi)
        # Runtime correctness checkers (collective ordering, p2p hygiene,
        # deadlock and ghost-race detection), or None when off.
        self.sanitizer = (Sanitizer(self.nranks, spec.sanitize, obs=self.obs)
                          if spec.sanitize is not None else None)

        # Fault injection and recovery (both optional and independent: an
        # injector without a policy reproduces failures un-handled; a
        # policy without an injector is simply never exercised).
        self.injector = spec.injector
        self.policy: ResiliencePolicy | None = spec.policy
        self.resilience = [ResilienceStats() for _ in range(self.nranks)]

        # Point-to-point: mailbox per (context, dest rank); one condition
        # per dest rank shared by all contexts.
        self._mail_conds = [threading.Condition() for _ in range(self.nranks)]
        self._mailboxes: dict[tuple[str, int], list[Envelope]] = {}
        # Retransmission buffers / tombstones for injected drops, and the
        # consumed-seq sets receivers deduplicate against.  All three are
        # keyed like mailboxes and guarded by the destination's condition.
        self._dropped: dict[tuple[str, int], list[Envelope]] = {}
        self._tombstones: dict[tuple[str, int], list[Envelope]] = {}
        self._consumed: dict[tuple[str, int], set[int]] = {}

        # Collectives: one lock/condition for the whole slot table (P is
        # small; contention is negligible).
        self._coll_cond = threading.Condition()
        self._coll_slots: dict[tuple[str, int], _CollectiveSlot] = {}

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
                _stamp(self.obs[rank], "sched_us", t_queued)

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
        with self._coll_cond:
            self._coll_cond.notify_all()

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

    def deliver_batch(self, items: list[tuple[str, Envelope]]) -> None:
        """Deliver several envelopes for one destination rank under a
        single condition acquisition.

        The deposit path for coalesced wire frames (mp-shm backend):
        semantically identical to calling :meth:`deliver` per item —
        mailbox append order equals batch order, and matching is by seq
        anyway — but N frames cost one lock round-trip, one sanitizer
        progress bump and one ``notify_all``.
        """
        if not items:
            return
        dest = items[0][1].dest
        if not (0 <= dest < self.nranks):
            raise ValueError(f"invalid destination rank {dest} (nranks={self.nranks})")
        if any(env.dest != dest for _, env in items):
            raise ValueError("deliver_batch items must share one destination")
        cond = self._mail_conds[dest]
        with cond:
            for context, env in items:
                self._mailboxes.setdefault((context, dest), []).append(env)
            if self.sanitizer is not None:
                self.sanitizer.notify_progress(dest)
            cond.notify_all()

    def flush_frames(self) -> None:
        """Hook run before this rank can block or poll: a transport that
        queues outbound envelopes (mp-shm coalescing) puts them on the wire
        here.  Thread deliveries are synchronous, so nothing to do."""

    def try_match(self, context: str, rank: int, source: int, tag: int) -> Envelope | None:
        """Non-blocking: pop the first mailbox envelope matching (source, tag)."""
        self.flush_frames()
        cond = self._mail_conds[rank]
        with cond:
            env = self._pop_locked(context, rank, source, tag)
        if env is None and self.run_token is not None:
            # A poll loop gets no pre-emption under the token: give a
            # queued rank the interpreter before reporting "nothing yet".
            with self.off_token(rank):
                time.sleep(0)
        return env

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

        The one place that knows how a rank blocks on its mailbox; every
        blocking receive, probe, wait and collective transport hop comes
        through here.  ``wants`` are ``(context, source, tag)`` triples;
        returns ``{index: envelope}`` in completion order — every want when
        ``want_all``, else at least one.  ``op`` names the blocked routine
        in deadlock reports.  ``charge`` is the rank's
        :meth:`~repro.mpi.comm.SimComm.charge`; passing it puts the wait
        under the world's resilience policy (transport hops pass none:
        their envelopes bypass fault injection).

        Always: an aborted job raises, and the whole call is capped by
        ``timeout_s`` from entry.  Under a policy with an injector
        attached, the wait runs in bounded retry rounds: each expired round
        retransmits matching dropped envelopes for every pending want (one
        ``MPI_Retransmit`` charge per recovered batch), and after
        ``max_attempts`` rounds a want whose message is tombstoned raises a
        typed :class:`CommFailure`.  Without evidence of loss the rounds
        stop and the wait goes on to the deadline, still recovering (and
        looking for a tombstone) on each wake-up — process backends deliver
        drop records asynchronously, so one may land after the counted
        rounds ran dry.

        Deadlock detection is suspended for the whole of such a fault run:
        a receive may be blocked on a dropped-but-recoverable message the
        wait-for graph cannot see, so the retry machinery owns liveness.
        Otherwise each sleep registers the pending wants and runs a
        detection pass.
        """
        # Before the lock: a ring write must never run under it, and a
        # rank registered as blocked must have nothing queued.
        self.flush_frames()
        policy = (self.policy if charge is not None
                  and self.injector is not None else None)
        rounds = _Rounds(self, rank,
                         policy.attempt_timeout_s if policy else None)
        san = self.sanitizer if policy is None else None
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
                            got[i] = env
                    pending = {i: w for i, w in pending.items() if i not in got}
                    if not pending or (got and not want_all):
                        return got
                    now = time.monotonic()
                    if now >= rounds.deadline:
                        raise SimMPIError(
                            f"rank {rank} timed out after {self.timeout_s}s in "
                            f"{op} waiting for {self._describe(pending)} — "
                            "likely deadlock")
                    if policy is not None:
                        counted = rounds.expired(now)
                        spent = rounds.attempt >= policy.max_attempts
                        if counted or spent:
                            recovered = sum(
                                self.recover_dropped(context, rank, source, tag)
                                for context, source, tag in pending.values())
                            if recovered:
                                charge("MPI_Retransmit",
                                       recovered * policy.retransmit_cost_us)
                            if spent:
                                self._raise_if_lost(rank, pending, rounds.attempt)
                                rounds.stop()
                            if counted or recovered:
                                continue  # re-test before sleeping
                    wait_s = rounds.wait_s(now)
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
            rounds.stamp()
            if san is not None:
                san.exit_wait(rank)

    @staticmethod
    def _describe(pending: dict[int, tuple[str, int, int]]) -> str:
        recvs = ", ".join(f"(source={s}, tag={t}, context={c!r})"
                          for c, s, t in pending.values())
        return f"({len(pending)} pending recv(s): {recvs})"

    def _raise_if_lost(self, rank: int,
                       pending: dict[int, tuple[str, int, int]],
                       attempts: int) -> None:
        """Retry budget spent: a pending want whose message is provably
        lost (tombstoned) is a typed failure."""
        for context, source, tag in pending.values():
            if self.lost_forever(context, rank, source, tag):
                self.resilience[rank].failures += 1
                if self.obs is not None:
                    self.obs[rank].metrics.counter(
                        "mpi_comm_failures_total",
                        "typed communication failures raised").inc()
                raise CommFailure(
                    f"rank {rank}: receive (source={source}, tag={tag}, "
                    f"context={context!r}) unmatched after {attempts} retry "
                    "round(s); a matching message was unrecoverably dropped")

    def _pop_locked(self, context: str, rank: int, source: int, tag: int) -> Envelope | None:
        box = self._mailboxes.get((context, rank))
        if not box:
            return None
        dedup = (self.policy is not None and self.policy.dedup
                 and self.injector is not None)
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
                    self.resilience[rank].deduplicated += 1
                    self.injector.note(rank, "mpi.deduplicated")
                    if self.obs is not None:
                        self.obs[rank].metrics.counter(
                            "mpi_deduplicated_total",
                            "injected duplicates discarded by receivers").inc()
                    continue
                consumed.add(env.seq)
            return env

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

    # ------------------------------------------------- drop/recovery store
    def stash_dropped(self, context: str, env: Envelope, recoverable: bool) -> None:
        """Record an injected drop: recoverable envelopes wait in the
        sender-side retransmission buffer; unrecoverable ones become
        tombstones (evidence of permanent loss for the receiver's bounded
        retry logic)."""
        cond = self._mail_conds[env.dest]
        store = self._dropped if recoverable else self._tombstones
        with cond:
            store.setdefault((context, env.dest), []).append(env)

    def recover_dropped(self, context: str, rank: int, source: int, tag: int) -> int:
        """Retransmit: move every matching buffered drop into the mailbox.

        Called by a receiver whose per-attempt timeout expired; models the
        sender-side retransmission a real resilient transport performs.
        Returns the number of recovered envelopes.
        """
        cond = self._mail_conds[rank]
        with cond:
            buf = self._dropped.get((context, rank))
            if not buf:
                return 0
            matched = [env for env in buf if env.matches(source, tag)]
            if not matched:
                return 0
            self._dropped[(context, rank)] = [e for e in buf if e not in matched]
            self._mailboxes.setdefault((context, rank), []).extend(matched)
            self.resilience[rank].recovered += len(matched)
            if self.injector is not None:
                for _ in matched:
                    self.injector.note(rank, "mpi.recovered")
            if self.obs is not None:
                self.obs[rank].metrics.counter(
                    "mpi_recovered_total",
                    "dropped envelopes recovered by retransmission").inc(len(matched))
            cond.notify_all()
            return len(matched)

    def lost_forever(self, context: str, rank: int, source: int, tag: int) -> bool:
        """Is a matching message known to be unrecoverably lost?"""
        cond = self._mail_conds[rank]
        with cond:
            stones = self._tombstones.get((context, rank), [])
            return any(env.matches(source, tag) for env in stones)

    # ---------------------------------------------------------- collective
    def exchange(self, context: str, seq: int, rank: int, value: Any,
                 routine: str = "MPI_Exchange") -> list[Any]:
        """All-to-all rendezvous: every rank deposits, all read all values.

        ``seq`` is the per-communicator collective call counter; because MPI
        requires all ranks to issue collectives in the same order, equal
        ``(context, seq)`` identifies the same logical collective on every
        rank.  Returns values ordered by rank.  The last reader frees the
        slot so the table stays bounded.  ``routine`` is diagnostic only
        (deadlock reports name the blocked operation).

        The wait is capped by ``timeout_s`` from entry.  Under a resilience
        policy it additionally runs in ``max_attempts`` rounds of
        ``collective_timeout_s`` (growing by the backoff factor): an
        incomplete round counts a collective retry, and exhausting the
        budget raises a typed :class:`~repro.faults.policy.CommFailure`
        instead of hanging until the deadline.
        """
        key = (context, seq)
        policy = self.policy
        rounds = _Rounds(self, rank, None if policy is None else (
            lambda k: policy.collective_timeout_s * policy.backoff_factor ** k))
        san = self.sanitizer
        try:
            with self._coll_cond:
                slot = self._coll_slots.get(key)
                if slot is None:
                    slot = _CollectiveSlot()
                    self._coll_slots[key] = slot
                if rank in slot.values:
                    raise SimMPIError(
                        f"rank {rank} deposited twice into collective {key}; "
                        "collectives must be called in the same order on all ranks"
                    )
                slot.values[rank] = value
                slot.deposited += 1
                if self.sanitizer is not None:
                    # A deposit can unblock any waiter: registered waits on
                    # this rank are stale until re-checked.
                    self.sanitizer.notify_progress_all()
                if slot.deposited == self.nranks:
                    slot.ready = True
                    self._coll_cond.notify_all()
                while not slot.ready:
                    self._check_abort()
                    arrived = f"{slot.deposited}/{self.nranks} ranks arrived"
                    now = time.monotonic()
                    if now >= rounds.deadline:
                        raise SimMPIError(
                            f"rank {rank} timed out in collective {key}: only "
                            f"{arrived} — likely mismatched collective calls")
                    if rounds.expired(now):
                        if rounds.attempt >= policy.max_attempts:
                            self.resilience[rank].failures += 1
                            raise CommFailure(
                                f"rank {rank}: collective {key} incomplete "
                                f"after {rounds.attempt} bounded round(s) "
                                f"({arrived})")
                        self.resilience[rank].collective_retries += 1
                    wait_s = rounds.wait_s(now)
                    if san is not None:
                        missing = set(range(self.nranks)) - set(slot.values)
                        san.enter_wait(
                            rank, routine,
                            f"(collective #{seq}, context={context!r}, "
                            f"waiting on ranks {sorted(missing)})", missing)
                        san.check_deadlock(rank)
                        wait_s = min(wait_s, san.config.deadlock_poll_s)
                    self._park(rank, self._coll_cond, wait_s)
                result = [slot.values[r] for r in range(self.nranks)]
                slot.readers += 1
                if slot.readers == self.nranks:
                    del self._coll_slots[key]
                return result
        finally:
            rounds.stamp()
            if san is not None:
                san.exit_wait(rank)
