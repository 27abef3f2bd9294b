"""``mp-shm`` backend: rank processes over shared-memory rings.

The thread backend runs every rank inside one Python process, which means
one GIL: compute-bound cells serialize and the "scaling" study measures
modeled time only.  This backend forks one OS process per rank so compute
really runs in parallel, while keeping the *model* bit-for-bit: each
worker instantiates the same :class:`~repro.mpi.world.SimWorld` (full-size
per-rank RNG streams, ledgers, observability) and executes only its own
rank, so every jitter draw, modeled charge and fault-injection decision
happens in the same per-rank program order as on the thread backend.

Wire protocol
-------------
Each rank owns one :class:`~repro.mpi.shm.ShmRing`; any peer writes frames
into the destination's ring and a per-worker receiver thread drains its
own ring into the local world's mailboxes.  Frames are encoded by
:mod:`repro.mpi.codec` (struct-packed header, zero-copy NumPy bodies,
pickle only for rich payloads; see DESIGN.md §14) and written as gathered
segments — array payloads go from the envelope's buffer straight into
shared memory with no intermediate ``tobytes()`` copy.

A remote deliver is one ring write, made before ``deliver`` returns:
nothing is ever queued on the sending side, so per-destination wire
order is send order, and a rank registered in the deadlock wait table
has no unsent frame by construction.  A ``stop`` frame (end-of-job
marker a worker writes into its *own* ring after the final barrier)
releases the receiver thread.

Collectives need nothing of their own: on every backend they move by
:func:`~repro.mpi.collectives.tree_allgather` over the mailbox, so here
their hops are frames like any other, and their deadline, deadlock
reports and sanitizer tokens are the base class's.  Injected drops need
nothing of their own either: a drop travels as a frame whose record kind
is its fate and lands in the destination's mailbox at its seq.

Failure handling: any rank's exception raises the shared abort flag and
rings both doorbells of every ring, so each blocked ring read or write
wakes at once and raises; every mailbox wait raises too, workers ship
their tracebacks to the launcher, and the launcher raises
:class:`~repro.mpi.runner.RankFailure` exactly like the thread backend.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from typing import Any, Callable

from repro.analysis.sanitize import Sanitizer, _WaitState
from repro.mpi import codec
from repro.mpi import collectives as coll
from repro.mpi.backend import (BackendRun, CommBackend, JobSpec, WorldView,
                               raise_rank_failures, seconds_left)
from repro.mpi.message import Envelope, rebase_seqno
from repro.mpi.shm import (WAIT_TABLE_MAX_RANKS, RingAborted, ShmFlag,
                           ShmRing, ShmWaitTable)
from repro.mpi.world import SimWorld

#: default per-rank ring capacity; a frame may exceed it (writers stream),
#: it only bounds how far a sender can run ahead of a slow receiver
DEFAULT_RING_BYTES = 1 << 20

#: seconds past ``timeout_s`` the launcher waits for a rank process to
#: report: every blocking MPI operation is capped by ``timeout_s`` from its
#: entry, the grace covers unwinding, pickling and shipping the rank's state
PROCESS_GRACE_S = 30.0


class SharedSanitizer(Sanitizer):
    """Sanitizer whose deadlock state lives in a shared wait table.

    Collective-order and p2p checks are per-rank local (each worker only
    issues operations for its own rank); only the wait-for graph needs the
    whole job, so exactly those methods mirror into the
    :class:`~repro.mpi.shm.ShmWaitTable`.
    """

    def __init__(self, nranks: int, config, obs, table: ShmWaitTable | None,
                 rings: list[ShmRing]) -> None:
        super().__init__(nranks, config, obs=obs)
        self._table = table
        self._rings = rings

    def notify_progress(self, rank: int) -> None:
        if self._table is not None:
            self._table.bump(rank)

    def enter_wait(self, rank, op, detail, waits_on) -> None:
        if self._table is not None:
            self._table.enter_wait(
                rank, op, detail, frozenset(waits_on) - {rank})

    def exit_wait(self, rank: int) -> None:
        if self._table is not None:
            self._table.exit_wait(rank)

    def _deadlock_snapshot(self):
        if self._table is None:
            return [None] * self.nranks, [0] * self.nranks
        raw_waits, gens = self._table.snapshot()
        waits = [
            None if w is None else _WaitState(
                op=w[0], detail=w[1], waits_on=w[2], gen=w[3])
            for w in raw_waits
        ]
        for r in range(self.nranks):
            if self._rings[r].undeposited():
                # A frame is in flight to r — still in the ring, or drained
                # but not yet deposited by r's receiver thread (which may be
                # blocked on r's mailbox lock, held by the very rank running
                # this check through its detection sleep).  Either way r
                # will make progress, so its registered wait must read as
                # stale.
                gens[r] += 1
        return waits, gens

    def check_deadlock(self, rank: int) -> None:
        """Two-phase deadlock check for the cross-process wait graph.

        Unlike the thread backend — where delivery is synchronous with the
        send, so a registered wait with an unbumped generation really is
        stuck — a process backend has a window between a frame being
        published and the receiver thread depositing it into the mailbox.
        A snapshot taken inside that window would report a phantom cycle,
        so :meth:`_deadlock_snapshot` treats any rank with undeposited ring
        bytes as having made progress.  That accounting matters most for
        the checking rank itself: it holds its own mailbox lock throughout
        (including the sleep below), so its receiver thread cannot deposit
        — or bump a generation — until the check is over.  On top of that,
        when a snapshot implicates this rank, sleep long enough for any
        other rank whose mailbox already holds a message to be woken by
        its receiver thread, match the message and bump its generation
        (all in another process, which this one has no event to wait
        on), then require a second snapshot to show the identical stuck
        set with unchanged generations before raising.
        """
        if self._table is None:
            return
        waits, gens = self._deadlock_snapshot()
        stuck = self._stuck_set(waits, gens)
        if rank not in stuck:
            return
        time.sleep(max(0.1, 2.0 * self.config.deadlock_poll_s))
        waits2, gens2 = self._deadlock_snapshot()
        if any(gens2[r] != gens[r] for r in stuck):
            return
        stuck2 = self._stuck_set(waits2, gens2)
        if rank not in stuck2:
            return
        self._raise_deadlock(rank, waits2, stuck2)


class ShmWorld(SimWorld):
    """A :class:`SimWorld` whose remote ranks live in other processes.

    Exactly three behaviours change relative to the base class:

    * :meth:`deliver` writes an envelope addressed to a remote rank
      (injected drops included, collective hops alike) into the
      destination's ring, one frame per envelope, before it returns;
    * :meth:`abort` raises the cross-process abort flag and rings every
      ring's doorbells;
    * the sanitizer (when on) is the shared-wait-table variant.

    Everything else — matching, dedup, recovery, the wait engine,
    accounting, RNG streams — is the base class operating on this
    process's local state.
    """

    backend = "mp-shm"

    def __init__(self, spec: JobSpec, myrank: int, rings: list[ShmRing],
                 abort_flag: ShmFlag, wait_table: ShmWaitTable | None) -> None:
        # The base class builds no sanitizer: the cross-process one is
        # swapped in below.
        super().__init__(dataclasses.replace(spec, sanitize=None))
        if spec.sanitize is not None:
            self.sanitizer = SharedSanitizer(
                spec.nranks, spec.sanitize, self.obs, wait_table, rings)
        self.myrank = int(myrank)
        self._rings = rings
        self._abort_flag = abort_flag
        self._receiver: threading.Thread | None = None
        self._tx_frames = 0

    # ------------------------------------------------------------ routing
    def deliver(self, context: str, env: Envelope) -> None:
        if env.dest == self.myrank:
            super().deliver(context, env)
            return
        if not (0 <= env.dest < self.nranks):
            raise ValueError(
                f"invalid destination rank {env.dest} (nranks={self.nranks})")
        # The record kind on the wire is the envelope's fate, so an
        # injected drop lands in the destination's mailbox as it left.
        # Never call this under a mailbox lock: the write can block on a
        # full ring whose receiver needs that lock to drain it.
        try:
            self._rings[env.dest].send_segments(
                codec.encode(env.fate, context, env), self._abort_flag)
        except RingAborted:
            self._check_abort()
            raise
        self._tx_frames += 1

    # -------------------------------------------------------------- abort
    def abort(self, reason: str) -> None:
        self._abort_flag.set()
        for ring in self._rings:
            ring.ring_bells()
        super().abort(reason)

    # ----------------------------------------------------------- receiver
    def start_receiver(self) -> None:
        t = threading.Thread(target=self._receive_loop,
                             name=f"shm-recv-{self.myrank}", daemon=True)
        self._receiver = t
        t.start()

    def _receive_loop(self) -> None:
        ring = self._rings[self.myrank]
        while True:
            try:
                frame = ring.recv(self._abort_flag)
            except RingAborted:
                # Wake local waiters; the failing rank ships the real cause.
                super().abort("peer rank failed (shared abort flag raised)")
                return
            if frame[0] == codec.F_STOP:
                ring.mark_deposited()
                return
            kind, context, _, env = codec.decode(frame)
            env.fate = kind  # the record kind is the envelope's fate
            SimWorld.deliver(self, context, env)
            # Only now has the frame truly landed: between ring.recv() and
            # here it was in no ring and no mailbox, and the deadlock
            # detector must still count it as in flight (undeposited()).
            ring.mark_deposited()

    def shutdown_receiver(self) -> None:
        """Unblock and join the receiver (call after the final barrier)."""
        t = self._receiver
        if t is None:
            return
        self._receiver = None
        try:
            self._rings[self.myrank].send(codec.STOP_FRAME, self._abort_flag)
        except RingAborted:
            # Aborted with a full ring: the receiver is exiting (or gone)
            # via the abort flag anyway.
            pass
        t.join(timeout=self.timeout_s)

    # ------------------------------------------------------------ metrics
    def export_transport_metrics(self) -> None:
        """Publish transport counts into this rank's metrics registry: the
        frames it sent, and its blocked ring waits (reading its own ring,
        writing any peer's) by what ended them — a bell that brought bytes
        or room, a ``stale`` bell that brought nothing new, or the
        ``backstop`` timeout."""
        if self.obs is None:
            return
        m = self.obs[self.myrank].metrics
        waits = sum(r.waits for r in self._rings)
        stale = sum(r.stale_wakes for r in self._rings)
        backstop = sum(r.timeouts for r in self._rings)
        for woke, n in (("bell", waits - stale - backstop), ("stale", stale),
                        ("backstop", backstop)):
            m.counter("shm_ring_waits_total",
                      "blocked ring waits, both directions, by what ended "
                      "them", woke=woke).inc(n)
        m.counter("shm_frames_sent_total",
                  "wire frames this rank published").inc(self._tx_frames)


#: transport context for the end-of-job barrier (never collides with user
#: contexts, which are namespaced under "world")
_FINAL_CONTEXT = "__final__"


def _worker_main(rank: int, spec: JobSpec, rings: list[ShmRing],
                 abort_flag: ShmFlag, wait_table: ShmWaitTable | None,
                 conn, fn: Callable[..., Any], args: tuple,
                 kwargs: dict) -> None:
    """Body of one rank process (entered via fork)."""
    rebase_seqno(rank)
    world = ShmWorld(spec, rank, rings, abort_flag, wait_table)
    world.start_receiver()
    from repro.mpi.comm import SimComm

    payload: tuple
    try:
        result = fn(SimComm(world, rank), *args, **kwargs)
        # Final barrier: after it, no peer will write to our ring again
        # (every pre-barrier send completed before its sender entered),
        # so the receiver can be stopped and the mailboxes are complete.
        coll.tree_allgather(world, _FINAL_CONTEXT, rank, spec.nranks, 0, None,
                            op="MPI_Finalize")
        world.shutdown_receiver()
        world.discard_trailing_duplicates(rank)
        world.export_transport_metrics()
        if world.sanitizer is not None:
            world.sanitizer.finalize(world)
        payload = ("ok", result, {
            "accounting": world.accounting[rank],
            "obs": world.obs[rank] if world.obs is not None else None,
            "resilience": world.resilience[rank],
            "findings": (list(world.sanitizer.findings)
                         if world.sanitizer is not None else []),
            "fault_events": (world.injector.events[rank]
                             if world.injector is not None else None),
        })
    except BaseException:  # ra: noqa[RA005] — rank isolation barrier
        world.abort(f"rank {rank} raised")
        world.shutdown_receiver()
        if world.obs is not None:
            # Each worker flushes its own black box: unlike the thread
            # backend there is no launcher-side world holding the rings,
            # and abort-woken peers flush theirs on their own except path.
            from repro.obs.flightrec import dump_flight_recorders

            dump_flight_recorders([world.obs[rank]], f"rank {rank} raised",
                                  world=world)
        payload = ("err", traceback.format_exc())
    try:
        conn.send(payload)
    except Exception:
        conn.send(("err",
                   f"rank {rank}: result not transferable:\n"
                   + traceback.format_exc()))
    finally:
        conn.close()


class MpShmBackend(CommBackend):
    """One forked process per rank, wired through shared-memory rings."""

    name = "mp-shm"

    def __init__(self, ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        self.ring_bytes = int(ring_bytes)

    def launch(self, spec: JobSpec, fn: Callable[..., Any],
               args: tuple, kwargs: dict) -> BackendRun:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "the mp-shm backend requires the 'fork' start method "
                "(POSIX); use backend='thread' on this platform") from exc

        n = spec.nranks
        rings = [ShmRing(self.ring_bytes, ctx) for _ in range(n)]
        abort_flag = ShmFlag()
        wait_table = (ShmWaitTable(n, ctx) if spec.sanitize is not None
                      and n <= WAIT_TABLE_MAX_RANKS else None)
        pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(r, spec, rings, abort_flag, wait_table,
                      pipes[r][1], fn, args, kwargs),
                name=f"simmpi-rank-{r}", daemon=True)
            for r in range(n)
        ]
        outcomes: list[tuple | None] = [None] * n
        stuck: list[int] = []
        deadline = time.monotonic() + spec.timeout_s + PROCESS_GRACE_S
        try:
            for p in procs:
                p.start()
            for _, w in pipes:
                w.close()  # parent keeps only the read ends
            for r, (reader, _) in enumerate(pipes):
                if not reader.poll(seconds_left(deadline)):
                    stuck.append(r)
                    continue
                try:
                    outcomes[r] = reader.recv()
                except EOFError:
                    pass  # died without reporting
            for r in stuck:  # had the whole deadline already
                procs[r].terminate()
            # A rank that reported is on its way out.
            reaped_by = time.monotonic() + 10.0
            for r, p in enumerate(procs):
                p.join(seconds_left(reaped_by))
                if p.is_alive():  # pragma: no cover - reported, never left
                    p.terminate()
                    p.join(timeout=5.0)
                    stuck.append(r)
        finally:
            for segment in (*rings, abort_flag, wait_table):
                if segment is not None:
                    segment.close()
                    segment.unlink()

        failures = {
            r: out[1] for r, out in enumerate(outcomes)
            if out is not None and out[0] == "err"
        }
        if not failures:
            failures = {r: "rank process died without reporting a result"
                        for r, out in enumerate(outcomes)
                        if out is None and r not in stuck}
        raise_rank_failures(failures, stuck)

        results = [out[1] for out in outcomes]
        states = [out[2] for out in outcomes]
        sanitizer = None
        if spec.sanitize is not None:
            # The job's findings, read through the class that made them.
            sanitizer = Sanitizer(n, spec.sanitize)
            sanitizer.findings = sorted(
                (f for st in states for f in st["findings"]),
                key=lambda f: (f.rank, f.kind, f.message))
        injector = spec.injector
        if injector is not None:
            # Adopt each worker's authoritative slice of the fault record.
            for r, st in enumerate(states):
                injector.events[r] = st["fault_events"]
        obs = None
        if spec.obs_config is not None:
            obs = [st["obs"] for st in states]
        world = WorldView(
            spec,
            accounting=[st["accounting"] for st in states],
            obs=obs,
            resilience=[st["resilience"] for st in states],
            sanitizer=sanitizer,
        )
        return BackendRun(results, world)
