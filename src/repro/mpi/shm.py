"""Shared-memory primitives for the ``mp-shm`` communicator backend.

Three small building blocks, all layered on
:mod:`multiprocessing.shared_memory` so rank *processes* can exchange
bytes without a broker process:

* :class:`ShmFlag` — a one-byte cross-process flag (the job abort signal);
* :class:`ShmRing` — a multi-writer / single-reader byte ring carrying
  length-prefixed frames (one ring per destination rank; any rank writes,
  only the owner drains);
* :class:`ShmWaitTable` — a fixed-slot per-rank wait/progress table the
  cross-process deadlock detector snapshots (the shared-memory analogue of
  the sanitizer's in-process ``_wait``/``_gen`` lists).

The ring uses monotonically increasing u64 head/tail counters (position =
counter mod capacity), the classic SPSC layout generalized to many writers
by serializing them behind one ``multiprocessing.Lock``.  The reader owns
``head``, the lock-holding writer owns ``tail``.  Counter *access* goes
through a second, dedicated lock held only for the (non-blocking) 16-byte
read or 8-byte publish: CPython reads and writes buffer slices with plain
``memcpy``, which tears 8-byte values under cross-process contention —
observed in practice as a reader seeing a half-updated tail and consuming
unpublished bytes.  The frame lock cannot double as that guard because a
writer sleeps holding it while the ring is full, which the reader must be
able to drain out of.  Frames stream: a writer holding the frame lock may
publish a frame larger than the free space and trickle it in as the
reader drains — oversized payloads need no chunking layer, and frames
from one writer are never interleaved with another's.  A blocked side
sleeps on a doorbell (a cross-process semaphore) that the other side
rings only after seeing the waiter's announcement in the ring header;
both the announcement and its read-and-clear happen under the counter
guard, so a wakeup is never lost and an uncontended ring rings nothing.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import Any

_HEAD = 0          # u64: bytes consumed (reader-owned)
_TAIL = 8          # u64: bytes published (writer-owned, lock-held)
_DEPOSITED = 16    # u64: bytes fully processed by the reader (reader-owned)
_WAITING = 24      # u8: waiter bits of the sides asleep on a bell (_clock)
_HEADER = 32
_COUNTERS = struct.Struct("<QQ")  # head, tail

#: ``_WAITING`` bits: the reader waits for bytes, the writer for room
_DATA_WAITER = 1
_ROOM_WAITER = 2

#: seconds a blocked side sleeps before re-checking the abort flag on its
#: own; only a peer that died between raising the flag and ringing (or
#: mid-publish) leaves a waiter to it — a bell ends every normal wait
BACKSTOP_S = 1.0


class RingAborted(RuntimeError):
    """The job abort flag was raised while blocked on a ring."""


def _u64(buf: memoryview, off: int) -> int:
    return struct.unpack_from("<Q", buf, off)[0]


def _put_u64(buf: memoryview, off: int, value: int) -> None:
    struct.pack_into("<Q", buf, off, value)


class ShmSegment:
    """A shared-memory block a launcher creates and must give back:
    ``close()`` then ``unlink()``, from its ``finally``."""

    def __init__(self, size: int) -> None:
        self._shm = shared_memory.SharedMemory(create=True, size=size)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


class ShmFlag(ShmSegment):
    """One shared byte; set-once, poll-cheap (the abort signal)."""

    def __init__(self) -> None:
        super().__init__(1)
        self._shm.buf[0] = 0

    def set(self) -> None:
        self._shm.buf[0] = 1

    def is_set(self) -> bool:
        return self._shm.buf[0] != 0


class ShmRing(ShmSegment):
    """Multi-writer, single-reader shared-memory byte ring.

    Writers call :meth:`send` (serialized by the ring lock); the owning
    rank's receiver thread calls :meth:`recv`.  Frames are ``u64 length +
    payload``; both the prefix and the payload may wrap around the ring
    edge and are copied in (at most) two slices.

    A reader that finds the ring empty, or a writer that finds it full,
    sets its bit in the header in the same ``_clock`` section that read
    the counters, then sleeps on its bell (``data`` or ``room``).  The
    other side reads and clears that bit in the ``_clock`` section that
    publishes its counter, and rings only if the bit was set.  Either the
    publish comes first (the would-be sleeper sees the new counter) or
    the announcement does (the publisher sees the bit), so no wakeup is
    lost; a bell is a counting semaphore, so one rung before the sleeper
    reaches ``acquire`` is kept.  Only the frame-lock holder can wait for
    room, so each bell has at most one sleeper.

    ``waits`` (sleeps begun), ``bells`` (rung for a waiter), ``timeouts``
    (sleeps the backstop ended) and ``stale_wakes`` (rings after which
    the side found nothing new) are plain per-process counts: each forked
    rank counts its own side of every ring.
    """

    def __init__(self, capacity: int, ctx: Any) -> None:
        if capacity < 1024:
            raise ValueError(f"ring capacity too small: {capacity}")
        self.capacity = int(capacity)
        super().__init__(_HEADER + self.capacity)
        buf = self._shm.buf
        _put_u64(buf, _HEAD, 0)
        _put_u64(buf, _TAIL, 0)
        _put_u64(buf, _DEPOSITED, 0)
        buf[_WAITING] = 0
        self._lock = ctx.Lock()
        self._clock = ctx.Lock()  # counter guard; never held while blocked
        self._bells = {_DATA_WAITER: ctx.Semaphore(0),
                       _ROOM_WAITER: ctx.Semaphore(0)}
        self.waits = 0
        self.bells = 0
        self.timeouts = 0
        self.stale_wakes = 0

    def waiting(self) -> int:
        """The header's waiter bits (``_DATA_WAITER | _ROOM_WAITER``)."""
        with self._clock:
            return self._shm.buf[_WAITING]

    def ring_bells(self) -> None:
        """Ring both bells whether or not anyone waits (job abort): a
        sleeper wakes at once, and a side that has yet to sleep finds its
        bell already rung; either way it re-checks the abort flag."""
        for bell in self._bells.values():
            bell.release()

    def _await(self, bit: int, abort: ShmFlag) -> tuple[int, int, int]:
        """``(head, tail, n)`` once ``n`` > 0 bytes are ready for this
        side: published bytes for the reader (``_DATA_WAITER``), free
        space for the writer (``_ROOM_WAITER``).  Sleeps on the side's
        bell while there are none; each time it finds none, a wake
        included, raises :class:`RingAborted` if the abort flag is up."""
        buf = self._shm.buf
        rang = False
        while True:
            with self._clock:
                head, tail = _COUNTERS.unpack_from(buf, _HEAD)
                n = tail - head
                if bit == _ROOM_WAITER:
                    n = self.capacity - n
                if not n:
                    buf[_WAITING] |= bit
            if n:
                return head, tail, n
            if abort.is_set():
                raise RingAborted("job aborted while ring "
                                  + ("empty" if bit == _DATA_WAITER else "full"))
            if rang:
                self.stale_wakes += 1
            self.waits += 1
            rang = self._bells[bit].acquire(timeout=BACKSTOP_S)
            if not rang:
                self.timeouts += 1

    def _publish(self, off: int, value: int, bit: int) -> None:
        """Store a counter, then ring the other side's bell if its
        ``bit`` says it sleeps (clearing the bit in the same section)."""
        buf = self._shm.buf
        with self._clock:
            _put_u64(buf, off, value)
            waiting = buf[_WAITING]
            if waiting & bit:
                buf[_WAITING] = waiting ^ bit
        if waiting & bit:
            self._bells[bit].release()
            self.bells += 1

    # ------------------------------------------------------------- writer
    def send(self, payload: bytes, abort: ShmFlag) -> None:
        """Publish one frame; blocks (streaming) while the ring is full."""
        self.send_segments((payload,), abort)

    def send_segments(self, segments: Any, abort: ShmFlag) -> int:
        """Publish one frame gathered from several bytes-like segments.

        A vectored write: one u64 length prefix covering the segment
        total, then each segment streamed in order — the concatenated
        frame is never materialized, so memoryview segments (array
        bodies from :mod:`repro.mpi.codec`) go from the source buffer
        straight into shared memory.  A frame that fits the free space is
        published with one ``tail`` store (one bell at most); a larger one
        is published each time it fills the ring, so the reader can drain
        it.  Returns the frame length.
        """
        total = 0
        for seg in segments:
            total += seg.nbytes if isinstance(seg, memoryview) else len(seg)
        buf = self._shm.buf
        with self._lock:
            # tail is ours while the frame lock is held: it only moves here.
            _, tail, free = self._await(_ROOM_WAITER, abort)
            for seg in (struct.pack("<Q", total), *segments):
                mv = memoryview(seg)
                while len(mv):
                    if not free:
                        self._publish(_TAIL, tail, _DATA_WAITER)
                        _, tail, free = self._await(_ROOM_WAITER, abort)
                    n = min(len(mv), free)
                    pos = tail % self.capacity
                    first = min(n, self.capacity - pos)
                    buf[_HEADER + pos:_HEADER + pos + first] = mv[:first]
                    if n > first:
                        buf[_HEADER:_HEADER + n - first] = mv[first:n]
                    tail += n
                    free -= n
                    mv = mv[n:]
            # Publish after the bytes are in place.
            self._publish(_TAIL, tail, _DATA_WAITER)
        return total

    # ------------------------------------------------------------- reader
    def recv(self, abort: ShmFlag) -> bytearray:
        """Consume one frame; blocks while the ring is empty.

        Returns a freshly allocated (hence writable, receiver-owned)
        bytearray — the codec's zero-copy decode wraps array payloads
        around it directly.  Raises :class:`RingAborted` when the abort
        flag is up and the ring has nothing to read, mid-frame too: a
        writer that streams a frame larger than the ring stops at the
        flag, so a reader waiting for the rest of it must stop as well.
        """
        (length,) = struct.unpack("<Q", self._read(8, abort))
        return self._read(length, abort)

    def _read(self, n: int, abort: ShmFlag) -> bytearray:
        buf = self._shm.buf
        out = bytearray(n)
        got = 0
        while got < n:
            head, _, avail = self._await(_DATA_WAITER, abort)
            take = min(n - got, avail)
            pos = head % self.capacity
            first = min(take, self.capacity - pos)
            out[got:got + first] = buf[_HEADER + pos:_HEADER + pos + first]
            if take > first:
                out[got + first:got + take] = buf[_HEADER:_HEADER + take - first]
            # Free the space only after the bytes are copied out (head is
            # ours: there is exactly one reader).
            self._publish(_HEAD, head + take, _ROOM_WAITER)
            got += take
        return out

    def pending(self) -> int:
        """Unconsumed bytes currently in the ring (diagnostics)."""
        with self._clock:
            head, tail = _COUNTERS.unpack_from(self._shm.buf, _HEAD)
        return tail - head

    def mark_deposited(self) -> None:
        """Reader-side: everything consumed so far is fully processed.

        The gap between :meth:`recv` returning a frame and the receiver
        finishing with it (depositing it in a mailbox) is invisible to
        ``pending()`` — the bytes have already left the ring.  The reader
        calls this after each frame so :meth:`undeposited` can expose that
        in-the-receiver's-hands state to the deadlock detector.
        """
        with self._clock:
            _put_u64(self._shm.buf, _DEPOSITED, _u64(self._shm.buf, _HEAD))

    def undeposited(self) -> int:
        """Bytes published but not yet fully processed by the reader —
        counts frames still in the ring *and* the frame the reader is
        currently handling."""
        with self._clock:
            return (_u64(self._shm.buf, _TAIL)
                    - _u64(self._shm.buf, _DEPOSITED))


# ------------------------------------------------------------- wait table
_REC_FMT = "<QBxxxxxxxQQ32s128s"  # gen, active, wait_gen, mask, op, detail
_REC_SIZE = struct.calcsize(_REC_FMT)

#: the wait mask is one u64 bit per rank
WAIT_TABLE_MAX_RANKS = 64


class ShmWaitTable(ShmSegment):
    """Per-rank blocked-wait records + progress generations, shared.

    The process-backend sanitizer mirrors ``enter_wait`` / ``exit_wait`` /
    ``notify_progress`` here so any rank's deadlock check can snapshot the
    whole job's wait-for graph.  Wait-on sets are stored as a u64 bitmask,
    which caps cross-process deadlock detection at 64 ranks — exactly the
    backend's target scale.
    """

    def __init__(self, nranks: int, ctx: Any) -> None:
        if not (1 <= nranks <= WAIT_TABLE_MAX_RANKS):
            raise ValueError(
                f"wait table supports 1..{WAIT_TABLE_MAX_RANKS} ranks, "
                f"got {nranks}")
        self.nranks = int(nranks)
        super().__init__(_REC_SIZE * self.nranks)
        self._shm.buf[:_REC_SIZE * self.nranks] = bytes(_REC_SIZE * self.nranks)
        self._lock = ctx.Lock()

    def _pack(self, rank: int, gen: int, active: int, wait_gen: int,
              mask: int, op: str, detail: str) -> None:
        struct.pack_into(
            _REC_FMT, self._shm.buf, rank * _REC_SIZE, gen, active, wait_gen,
            mask, op.encode()[:32], detail.encode()[:128])

    def _unpack(self, rank: int) -> tuple[int, int, int, int, str, str]:
        gen, active, wait_gen, mask, op, detail = struct.unpack_from(
            _REC_FMT, self._shm.buf, rank * _REC_SIZE)
        return (gen, active, wait_gen, mask,
                op.rstrip(b"\x00").decode(errors="replace"),
                detail.rstrip(b"\x00").decode(errors="replace"))

    # ------------------------------------------------------------ mutators
    def bump(self, rank: int) -> None:
        """Progress happened for ``rank``: its registered wait is stale."""
        with self._lock:
            gen, active, wait_gen, mask, op, detail = self._unpack(rank)
            self._pack(rank, gen + 1, active, wait_gen, mask, op, detail)

    def enter_wait(self, rank: int, op: str, detail: str,
                   waits_on: frozenset[int]) -> None:
        mask = 0
        for peer in waits_on:
            mask |= 1 << peer
        with self._lock:
            gen = self._unpack(rank)[0]
            self._pack(rank, gen, 1, gen, mask, op, detail)

    def exit_wait(self, rank: int) -> None:
        with self._lock:
            gen = self._unpack(rank)[0]
            self._pack(rank, gen, 0, 0, 0, "", "")

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> tuple[list[tuple[str, str, frozenset[int], int] | None],
                                list[int]]:
        """(per-rank (op, detail, waits_on, wait_gen) or None, gens)."""
        waits: list[tuple[str, str, frozenset[int], int] | None] = []
        gens: list[int] = []
        with self._lock:
            for r in range(self.nranks):
                gen, active, wait_gen, mask, op, detail = self._unpack(r)
                gens.append(gen)
                if not active:
                    waits.append(None)
                    continue
                on = frozenset(
                    p for p in range(self.nranks) if mask & (1 << p))
                waits.append((op, detail, on, wait_gen))
        return waits, gens
