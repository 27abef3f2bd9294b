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
from one writer are never interleaved with another's.  Blocked sides
wait through a :class:`BackoffController` (spin-then-park with a doubling
park interval) instead of a fixed poll constant, and each controller
exports its effective poll interval for the metrics registry.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory
from typing import Any

_HEAD = 0          # u64: bytes consumed (reader-owned)
_TAIL = 8          # u64: bytes published (writer-owned, lock-held)
_DEPOSITED = 16    # u64: bytes fully processed by the reader (reader-owned)
_HEADER = 24


class RingAborted(RuntimeError):
    """The job abort flag was raised while blocked on a ring."""


class BackoffController:
    """Spin-then-park waiter for ring full/empty conditions.

    Replaces the fixed spin-count/poll-interval constants: the first
    ``spin`` retries yield the GIL only (``sleep(0)``), so the hot
    rendezvous path — peer already mid-write — resolves at memory speed;
    past that the waiter parks, doubling the park interval from
    ``park_min_s`` up to ``park_max_s``, so a long-idle receiver costs
    hundreds of wakeups per second instead of thousands while a briefly
    blocked one still reacts within tens of microseconds.  Any progress
    resets to the spin phase.

    The controller keeps counters and an EWMA of recent park intervals
    so the *effective* poll interval is observable: the mp-shm backend
    exports it per rank through the metrics registry
    (``shm_poll_interval_us``).  State is plain per-process attributes —
    each forked rank mutates its own copy, which is exactly the per-rank
    granularity the export wants.
    """

    __slots__ = ("spin", "park_min_s", "park_max_s", "spins_total",
                 "parks_total", "parked_s_total", "_streak", "_park_s",
                 "_ewma_s")

    def __init__(self, spin: int = 20, park_min_s: float = 20e-6,
                 park_max_s: float = 2e-3) -> None:
        self.spin = int(spin)
        self.park_min_s = float(park_min_s)
        self.park_max_s = float(park_max_s)
        self.spins_total = 0
        self.parks_total = 0
        self.parked_s_total = 0.0
        self._streak = 0
        self._park_s = self.park_min_s
        self._ewma_s = self.park_min_s

    def pause(self) -> None:
        """One blocked retry: yield while spinning, then park and grow."""
        self._streak += 1
        if self._streak <= self.spin:
            self.spins_total += 1
            time.sleep(0.0)
            return
        park = self._park_s
        self.parks_total += 1
        self.parked_s_total += park
        self._ewma_s += 0.125 * (park - self._ewma_s)
        time.sleep(park)
        self._park_s = min(park * 2.0, self.park_max_s)

    def reset(self) -> None:
        """Progress was made: back to the spin phase at the floor."""
        self._streak = 0
        self._park_s = self.park_min_s

    @property
    def poll_interval_us(self) -> float:
        """Effective poll interval (EWMA of recent parks), microseconds;
        the park floor when the controller never left the spin phase."""
        return self._ewma_s * 1e6


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
        self._lock = ctx.Lock()
        self._clock = ctx.Lock()  # counter guard; never held while blocked
        #: adaptive full/empty waiters; forked per process, so each rank
        #: paces (and reports) its own side independently
        self.tx_backoff = BackoffController()
        self.rx_backoff = BackoffController()

    def _counters(self) -> tuple[int, int]:
        with self._clock:
            return _u64(self._shm.buf, _HEAD), _u64(self._shm.buf, _TAIL)

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
        straight into shared memory.  Returns the frame length.
        """
        total = 0
        for seg in segments:
            total += seg.nbytes if isinstance(seg, memoryview) else len(seg)
        with self._lock:
            self._write(struct.pack("<Q", total), abort)
            for seg in segments:
                self._write(seg, abort)
        return total

    def _write(self, data: Any, abort: ShmFlag) -> None:
        buf = self._shm.buf
        mv = memoryview(data)
        back = self.tx_backoff
        while len(mv):
            head, tail = self._counters()
            free = self.capacity - (tail - head)
            if free == 0:
                if abort.is_set():
                    raise RingAborted("job aborted while ring full")
                back.pause()
                continue
            back.reset()
            n = min(len(mv), free)
            pos = tail % self.capacity
            first = min(n, self.capacity - pos)
            buf[_HEADER + pos:_HEADER + pos + first] = mv[:first]
            if n > first:
                buf[_HEADER:_HEADER + n - first] = mv[first:n]
            # Publish after the bytes are in place (tail is ours: the frame
            # lock is held, so re-reading it under the guard is redundant).
            with self._clock:
                _put_u64(buf, _TAIL, tail + n)
            mv = mv[n:]

    # ------------------------------------------------------------- reader
    def recv(self, abort: ShmFlag) -> bytearray:
        """Consume one frame; blocks while the ring is empty.

        Returns a freshly allocated (hence writable, receiver-owned)
        bytearray — the codec's zero-copy decode wraps array payloads
        around it directly.  Raises :class:`RingAborted` when the abort
        flag goes up while waiting (mid-frame reads finish normally: the
        lock-holding writer streams the rest even during abort only if
        it can — so mid-frame we keep honouring the flag too).
        """
        (length,) = struct.unpack("<Q", self._read(8, abort))
        return self._read(length, abort)

    def _read(self, n: int, abort: ShmFlag) -> bytearray:
        buf = self._shm.buf
        out = bytearray(n)
        got = 0
        back = self.rx_backoff
        while got < n:
            head, tail = self._counters()
            avail = tail - head
            if avail == 0:
                if abort.is_set():
                    raise RingAborted("job aborted while ring empty")
                back.pause()
                continue
            back.reset()
            take = min(n - got, avail)
            pos = head % self.capacity
            first = min(take, self.capacity - pos)
            out[got:got + first] = buf[_HEADER + pos:_HEADER + pos + first]
            if take > first:
                out[got + first:got + take] = buf[_HEADER:_HEADER + take - first]
            # Free the space only after the bytes are copied out (head is
            # ours: there is exactly one reader).
            with self._clock:
                _put_u64(buf, _HEAD, head + take)
            got += take
        return out

    def pending(self) -> int:
        """Unconsumed bytes currently in the ring (diagnostics)."""
        head, tail = self._counters()
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

    def bump_all(self) -> None:
        with self._lock:
            for r in range(self.nranks):
                gen, active, wait_gen, mask, op, detail = self._unpack(r)
                self._pack(r, gen + 1, active, wait_gen, mask, op, detail)

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
