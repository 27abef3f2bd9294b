"""Runtime MPI/determinism sanitizers for the simulated MPI layer.

MUST-style dynamic correctness checking (PAPERS.md: Vetter & de Supinski)
adapted to the thread-backed simulator.  A :class:`Sanitizer` attaches to a
:class:`~repro.mpi.world.SimWorld` when ``sanitize=SanitizerConfig()`` is
passed to the runner / ``run_scmd`` / ``CaseStudyConfig`` and performs four
families of checks:

* **collective ordering** — every collective piggybacks a token (routine
  name, per-rank op index, rolling op-sequence hash) inside the value its
  tree moves; ranks compare all P tokens once the tree completes and
  report the first divergent operation instead of silently combining a
  ``bcast`` with a ``reduce``;
* **point-to-point hygiene** — payload type stability per (context, source,
  dest, tag) channel among each sender's most recent channels (warning),
  plus finalize-time detection of leaked
  :class:`~repro.mpi.request.RecvRequest` objects and unconsumed
  :class:`~repro.mpi.message.Envelope` s;
* **deadlock detection** — blocked ranks register a wait-for edge set
  (specific source, ANY_SOURCE fan-in, or the tree peer a collective's
  hop waits on, reported under the collective's routine); a fixpoint over the wait-for graph finds groups whose every
  member waits only on other stuck members and raises
  :class:`DeadlockError` naming the cycle of ranks and pending ops instead
  of hanging until the world timeout;
* **ghost-region races** — inside one ghost exchange the only writer
  of a destination region is another insert of the same plan, and each
  send is packed into a fresh buffer before it is posted, so a race is a
  property of the compiled plan: two of a rank's inserts (local copies
  and received blocks alike) that write one region.
  :meth:`~repro.amr.ghost.ExchangePlan.overlaps` finds those pairs once
  per plan and rank, and :func:`~repro.amr.ghost.execute_transfers`
  reports each (:meth:`Sanitizer.check_exchange`) before it copies or
  posts anything.  An exchange with no overlap costs one cached lookup;
  nothing is hashed.

Findings are recorded (:attr:`Sanitizer.findings`), emitted through the
per-rank :class:`~repro.obs.metrics.MetricsRegistry` when observability is
on (``sanitizer_findings_total{kind=...}``), and — with ``strict=True``,
the default — raised as typed :class:`SanitizerError` subclasses at the
point of detection.  Deadlocks always raise: the alternative is the hang
they exist to prevent.
"""

from __future__ import annotations

import functools
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.amr.ghost import ExchangePlan
    from repro.mpi.message import Envelope
    from repro.mpi.request import RecvRequest


class SanitizerError(RuntimeError):
    """Base class for sanitizer-detected correctness violations."""


class DeadlockError(SanitizerError):
    """A cycle of ranks each blocked waiting on another member."""


class CollectiveMismatchError(SanitizerError):
    """Ranks issued different collective operations at the same sequence
    number."""


class GhostRaceError(SanitizerError):
    """Two inserts of one ghost exchange write the same region."""


class LeakError(SanitizerError):
    """Requests never completed / envelopes never received at finalize."""


#: finding kinds that never raise, regardless of ``strict``
WARNING_KINDS = frozenset({"p2p-type-instability"})

#: channels remembered per sending rank by the type-stability check
CHANNEL_TABLE_SIZE = 256


@dataclass
class SanitizerConfig:
    """How the sanitizers surface violations (all four families always run).

    ``strict=True`` raises a typed :class:`SanitizerError` at the point of
    detection (deadlocks always raise); ``strict=False`` only records
    findings, for survey runs over known-dirty workloads.
    """

    strict: bool = True
    #: how often blocked ranks re-check the wait-for graph (seconds)
    deadlock_poll_s: float = 0.05
    #: per-rank collective history depth kept for divergence diagnostics
    history: int = 64

    def __post_init__(self) -> None:
        if self.deadlock_poll_s <= 0:
            raise ValueError(
                f"deadlock_poll_s must be positive, got {self.deadlock_poll_s}")
        if self.history < 2:
            raise ValueError(f"history must be >= 2, got {self.history}")


@dataclass(frozen=True)
class SanitizerFinding:
    """One recorded violation."""

    kind: str
    rank: int
    message: str

    def format(self) -> str:
        return f"[{self.kind}] rank {self.rank}: {self.message}"


@dataclass(frozen=True)
class _CollToken:
    """Per-rank metadata piggybacked through one collective's tree."""

    rank: int
    routine: str
    index: int
    seq_hash: int


@dataclass
class _WaitState:
    """One blocked rank's registered wait-for edge set."""

    op: str
    detail: str
    waits_on: frozenset[int]
    gen: int


@functools.lru_cache(maxsize=64)
def _array_signature(cls: type, dtype: Any, ndim: int) -> str:
    return f"{cls.__name__}[{dtype},{ndim}d]"


def type_signature(obj: Any) -> str:
    """Compact payload type descriptor used for channel-stability checks.

    Array descriptors are interned per ``(type, dtype, ndim)``: formatting
    a NumPy dtype's name costs more than the rest of the p2p check.
    """
    shape = getattr(obj, "shape", None)
    dtype = getattr(obj, "dtype", None)
    if shape is not None and dtype is not None:
        return _array_signature(type(obj), dtype, len(shape))
    return type(obj).__name__


class Sanitizer:
    """All shared sanitizer state for one simulated job."""

    def __init__(self, nranks: int, config: SanitizerConfig | None = None,
                 obs: Sequence[Any] | None = None) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = int(nranks)
        self.config = config or SanitizerConfig()
        self._obs = obs
        self.findings: list[SanitizerFinding] = []
        self._flock = threading.Lock()

        # Collective ordering: per-(rank, context) op counter + rolling
        # hash, plus a bounded per-rank history for divergence reports.
        self._coll_count: dict[tuple[int, str], int] = {}
        self._coll_hash: dict[tuple[int, str], int] = {}
        self._coll_hist: list[deque[tuple[str, int, str]]] = [
            deque(maxlen=self.config.history) for _ in range(self.nranks)]

        # P2P: channel payload-type stability + per-rank posted receives.
        # One channel table per sending rank: only that rank's thread
        # touches it, so it needs no lock; ``_chan_order`` holds its keys
        # oldest first and evicts beyond CHANNEL_TABLE_SIZE.
        self._chan_types: list[dict[tuple[str, int, int], str]] = [
            {} for _ in range(self.nranks)]
        self._chan_order: list[deque[tuple[str, int, int]]] = [
            deque() for _ in range(self.nranks)]
        self._requests: list[list["RecvRequest"]] = [[] for _ in range(self.nranks)]

        # Deadlock: registered wait states + per-rank progress generations.
        self._dlock = threading.Lock()
        self._wait: list[_WaitState | None] = [None] * self.nranks
        self._gen: list[int] = [0] * self.nranks

    # ---------------------------------------------------------- findings
    def record(self, kind: str, rank: int, message: str,
               exc: type[SanitizerError] | None = None) -> None:
        """Record a finding; raise it when strict (warnings never raise)."""
        with self._flock:
            self.findings.append(SanitizerFinding(kind=kind, rank=rank,
                                                  message=message))
        if self._obs is not None:
            self._obs[rank].metrics.counter(
                "sanitizer_findings_total", "sanitizer findings by kind",
                kind=kind).inc()
        if kind in WARNING_KINDS:
            return
        always = exc is DeadlockError  # never trade a report for a hang
        if (self.config.strict or always) and exc is not None:
            raise exc(message)

    def findings_by_kind(self) -> dict[str, int]:
        with self._flock:
            out: dict[str, int] = {}
            for f in self.findings:
                out[f.kind] = out.get(f.kind, 0) + 1
            return out

    # ------------------------------------------------ collective ordering
    def collective_token(self, rank: int, context: str, seq: int,
                         routine: str) -> _CollToken:
        """Advance this rank's op sequence; returns the collective's token."""
        key = (rank, context)
        index = self._coll_count.get(key, 0)
        self._coll_count[key] = index + 1
        h = self._coll_hash.get(key, 0)
        h = ((h * 1000003) ^ (zlib.crc32(routine.encode()) + seq)) & 0xFFFFFFFFFFFFFFFF
        self._coll_hash[key] = h
        self._coll_hist[rank].append((context, seq, routine))
        return _CollToken(rank=rank, routine=routine, index=index, seq_hash=h)

    def collective_check(self, rank: int, context: str, seq: int,
                         tokens: Sequence[_CollToken]) -> None:
        """Compare all ranks' tokens for one collective; report divergence."""
        mine = next(t for t in tokens if t.rank == rank)
        for other in tokens:
            if other.routine != mine.routine:
                msg = (f"collective #{seq} on context {context!r}: "
                       f"rank {mine.rank} issued {mine.routine} but "
                       f"rank {other.rank} issued {other.routine} "
                       "— collectives must be called in the same order on "
                       "all ranks")
                self.record("collective-mismatch", rank, msg,
                            CollectiveMismatchError)
                return
        for other in tokens:
            if other.seq_hash != mine.seq_hash or other.index != mine.index:
                first = self._first_divergence(rank, other.rank)
                msg = (f"collective #{seq} on context {context!r}: "
                       f"op-sequence divergence between rank {mine.rank} "
                       f"(op index {mine.index}) and rank {other.rank} "
                       f"(op index {other.index}); first divergent op in "
                       f"recent history: {first}")
                self.record("collective-mismatch", rank, msg,
                            CollectiveMismatchError)
                return

    def _first_divergence(self, a: int, b: int) -> str:
        ha, hb = list(self._coll_hist[a]), list(self._coll_hist[b])
        for i in range(max(len(ha), len(hb))):
            ea = ha[i] if i < len(ha) else None
            eb = hb[i] if i < len(hb) else None
            if ea != eb:
                return (f"rank {a}: {ea!r} vs rank {b}: {eb!r}")
        return "(histories agree within retained window)"

    # ------------------------------------------------------ point-to-point
    def on_send(self, rank: int, context: str, env: "Envelope") -> None:
        """Channel payload-type stability check, recorded at send time.

        ``rank`` (the sender) remembers the payload type last carried by
        each of its CHANNEL_TABLE_SIZE most recently opened (context,
        dest, tag) channels, so the check sees a channel that is reused
        while it is still among them: fixed-tag application messages.
        A ghost exchange never repeats a channel (its tags come from
        :class:`~repro.amr.ghost.GhostExchanger`'s monotone counter);
        its entries pass through the table and age out.
        """
        sig = type_signature(env.payload)
        key = (context, env.dest, env.tag)
        table = self._chan_types[rank]
        prev = table.get(key)
        table[key] = sig
        if prev is None:
            order = self._chan_order[rank]
            order.append(key)
            if len(order) > CHANNEL_TABLE_SIZE:
                del table[order.popleft()]
        elif prev != sig:
            self.record(
                "p2p-type-instability", rank,
                f"channel (context={context!r}, {env.source}->{env.dest}, "
                f"tag={env.tag}) carried {prev} before but now {sig}; "
                "matching receives cannot rely on a stable datatype")

    def on_post_recv(self, rank: int, req: "RecvRequest") -> None:
        """Track a posted nonblocking receive for finalize-time leak checks."""
        reqs = self._requests[rank]
        reqs.append(req)
        if len(reqs) > 256:
            # Compact completed requests so payload references are released.
            self._requests[rank] = [r for r in reqs if not r.complete]

    # ------------------------------------------------------------ deadlock
    def notify_progress(self, rank: int) -> None:
        """A message arrived for ``rank``: its registered wait is
        stale and must not count as stuck until it re-checks its mailbox."""
        with self._dlock:
            self._gen[rank] += 1

    def enter_wait(self, rank: int, op: str, detail: str,
                   waits_on: Iterable[int]) -> None:
        """(Re-)register a blocked rank's current wait-for edge set."""
        with self._dlock:
            self._wait[rank] = _WaitState(
                op=op, detail=detail,
                waits_on=frozenset(waits_on) - {rank}, gen=self._gen[rank])

    def exit_wait(self, rank: int) -> None:
        with self._dlock:
            self._wait[rank] = None

    def _deadlock_snapshot(self) -> tuple[list[_WaitState | None], list[int]]:
        """Consistent (wait states, progress generations) snapshot.

        The seam process backends override: their ranks live in separate
        processes, so the snapshot must be read from a shared-memory wait
        table rather than this process's lists (see
        :class:`repro.mpi.mpshm.SharedSanitizer`).
        """
        with self._dlock:
            return list(self._wait), list(self._gen)

    @staticmethod
    def _stuck_set(waits: list[_WaitState | None], gens: list[int]) -> set[int]:
        """Fixpoint over the wait-for graph: the set of ranks whose every
        wait-for edge leads to another member with no progress since
        registration."""
        stuck = {r for r, w in enumerate(waits)
                 if w is not None and w.gen == gens[r] and w.waits_on}
        changed = True
        while changed:
            changed = False
            for r in list(stuck):
                if any(peer not in stuck for peer in waits[r].waits_on):
                    stuck.discard(r)
                    changed = True
        return stuck

    def check_deadlock(self, rank: int) -> None:
        """Fixpoint over the wait-for graph; raises :class:`DeadlockError`
        naming the cycle when ``rank`` belongs to a stuck group."""
        waits, gens = self._deadlock_snapshot()
        stuck = self._stuck_set(waits, gens)
        if rank not in stuck:
            return
        self._raise_deadlock(rank, waits, stuck)

    def _raise_deadlock(self, rank: int, waits: list[_WaitState | None],
                        stuck: set[int]) -> None:
        # Walk one concrete cycle through the stuck set for the report.
        cycle = [rank]
        seen = {rank}
        cur = rank
        while True:
            nxt = min(p for p in waits[cur].waits_on if p in stuck)
            if nxt in seen:
                cycle.append(nxt)
                break
            cycle.append(nxt)
            seen.add(nxt)
            cur = nxt
        hops = " -> ".join(
            f"rank {r} blocked in {waits[r].op} {waits[r].detail}"
            if i < len(cycle) - 1 else f"rank {r}"
            for i, r in enumerate(cycle))
        msg = (f"deadlock detected among ranks {sorted(stuck)}: {hops}")
        self.record("deadlock", rank, msg, DeadlockError)

    # ------------------------------------------------------------ finalize
    def finalize(self, world: Any) -> None:
        """End-of-job hygiene: leaked requests and unconsumed envelopes.

        Called by the runner after every rank thread joined cleanly.
        """
        problems: list[str] = []
        for rank in range(self.nranks):
            leaked = [r for r in self._requests[rank] if not r.complete]
            if leaked:
                pend = ", ".join(
                    f"(source={r.source}, tag={r.tag})" for r in leaked)
                msg = (f"{len(leaked)} leaked RecvRequest(s) posted but "
                       f"never completed: {pend}")
                self.record("leaked-request", rank, msg, None)
                problems.append(f"rank {rank}: {msg}")
            left = world.leftover_envelopes(rank)
            if left:
                desc = ", ".join(
                    f"from rank {e.source} tag={e.tag} (context={c!r}, "
                    f"seq={e.seq}, {type_signature(e.payload)})"
                    for c, e in left)
                msg = (f"{len(left)} unconsumed Envelope(s) still in the "
                       f"mailbox at finalize: {desc}")
                self.record("unconsumed-envelope", rank, msg, None)
                problems.append(f"rank {rank}: {msg}")
        if problems and self.config.strict:
            raise LeakError("; ".join(problems))

    # ---------------------------------------------------------- ghost race
    def check_exchange(self, plan: "ExchangePlan", rank: int,
                       fields: Sequence[str], tag_base: int) -> None:
        """Report every two of ``rank``'s inserts in ``plan`` that write
        one region (the plan's cached
        :meth:`~repro.amr.ghost.ExchangePlan.overlaps`)."""
        for i, j, region in plan.overlaps(rank):
            named = " and ".join(
                ("local copy" if plan.transfers[k].src_patch.owner == rank
                 else "nonblocking receive") + f" tag={tag_base + k}"
                for k in (i, j))
            self.record(
                "ghost-race", rank,
                f"ghost-region race: patch uid={plan.transfers[i].dst_patch.uid}"
                f" region={region} fields={list(fields)} is written by both "
                f"{named} of one exchange: whichever lands last wins",
                GhostRaceError)
