"""Unit tests for the mp-shm backend's shared-memory primitives.

Covers the byte ring (framing, wrap-around, oversize streaming, vectored
segment writes, abort), the adaptive backoff controller, the
cross-process wait table, the wire frame codec, and sequence-number
rebasing — everything below :class:`~repro.mpi.mpshm.MpShmBackend`.
(Deep codec coverage lives in ``tests/test_mpi_codec.py``.)
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import struct
import threading

import numpy as np
import pytest

from repro.mpi import codec
from repro.mpi import message as msg_mod
from repro.mpi.message import DELIVERED, LOST, RETRANSMITTED, Envelope
from repro.mpi.shm import (WAIT_TABLE_MAX_RANKS, BackoffController,
                           RingAborted, ShmFlag, ShmRing, ShmWaitTable)


@pytest.fixture()
def ctx():
    return mp.get_context("fork")


@pytest.fixture()
def ring(ctx):
    r = ShmRing(4096, ctx)
    yield r
    r.close()
    r.unlink()


@pytest.fixture()
def flag():
    f = ShmFlag()
    yield f
    f.close()
    f.unlink()


# ---------------------------------------------------------------- ShmRing
class TestShmRing:
    def test_roundtrip_small_frames(self, ring, flag):
        frames = [b"", b"x", b"hello world", bytes(range(256))]
        for f in frames:
            ring.send(f, flag)
        for f in frames:
            assert ring.recv(flag) == f
        assert ring.pending() == 0

    def test_wraparound(self, ring, flag):
        # Many frames totalling several times the capacity force both the
        # length prefix and payloads across the ring edge repeatedly.
        payload = bytes(1000)
        for i in range(20):
            ring.send(payload + bytes([i]), flag)
            got = ring.recv(flag)
            assert got[:-1] == payload and got[-1] == i

    def test_oversize_frame_streams(self, ring, flag):
        # A frame larger than the whole ring trickles through while the
        # reader concurrently drains.
        big = np.random.default_rng(0).integers(
            0, 256, size=3 * ring.capacity, dtype=np.uint8).tobytes()
        out = {}

        def reader():
            out["frame"] = ring.recv(flag)

        t = threading.Thread(target=reader)
        t.start()
        ring.send(big, flag)
        t.join(timeout=30)
        assert not t.is_alive()
        assert out["frame"] == big

    def test_recv_abort_on_empty(self, ring, flag):
        flag.set()
        with pytest.raises(RingAborted):
            ring.recv(flag)

    def test_send_abort_on_full(self, ring, flag):
        def arm():
            flag.set()

        t = threading.Timer(0.2, arm)
        t.start()
        try:
            with pytest.raises(RingAborted):
                # No reader: a frame larger than capacity must block
                # streaming until the abort flag goes up.
                ring.send(bytes(2 * ring.capacity), flag)
        finally:
            t.cancel()

    def test_pending_counts_bytes(self, ring, flag):
        ring.send(b"abc", flag)
        assert ring.pending() == 8 + 3  # length prefix + payload
        ring.recv(flag)
        assert ring.pending() == 0

    def test_undeposited_covers_reader_in_hand_window(self, ring, flag):
        # A frame stays "undeposited" from publication until the reader
        # explicitly marks it processed — including after recv() has
        # already emptied the ring (the deadlock detector relies on this).
        ring.send(b"abc", flag)
        assert ring.undeposited() == 8 + 3
        ring.recv(flag)
        assert ring.pending() == 0
        assert ring.undeposited() == 8 + 3
        ring.mark_deposited()
        assert ring.undeposited() == 0

    def test_capacity_floor(self, ctx):
        with pytest.raises(ValueError):
            ShmRing(8, ctx)

    def test_cross_process_integrity(self, ctx, ring, flag):
        # Two writer processes interleave checksummed frames; the reader
        # must see every frame intact and in per-writer order (regression
        # test for torn shared-counter access).
        per = 300

        def writer(w: int) -> None:
            for i in range(per):
                body = bytes((w * 7 + i + j) % 251 for j in range(i % 97))
                ring.send(struct.pack("<BI", w, i) + body, flag)

        procs = [ctx.Process(target=writer, args=(w,), daemon=True)
                 for w in range(2)]
        for p in procs:
            p.start()
        seen = [0, 0]
        for _ in range(2 * per):
            frame = ring.recv(flag)
            w, i = struct.unpack_from("<BI", frame)
            assert i == seen[w], f"writer {w}: got {i}, expected {seen[w]}"
            assert frame[5:] == bytes(
                (w * 7 + i + j) % 251 for j in range(i % 97))
            seen[w] = i + 1
        for p in procs:
            p.join()
        assert seen == [per, per]


# ----------------------------------------------------------- ShmWaitTable
class TestShmWaitTable:
    def test_enter_exit_snapshot(self, ctx):
        table = ShmWaitTable(4, ctx)
        try:
            table.enter_wait(2, "MPI_Recv", "(source=0, tag=7)",
                             frozenset({0}))
            waits, gens = table.snapshot()
            assert waits[0] is None and waits[1] is None and waits[3] is None
            op, detail, on, wait_gen = waits[2]
            assert op == "MPI_Recv"
            assert "tag=7" in detail
            assert on == frozenset({0})
            assert wait_gen == gens[2]
            table.exit_wait(2)
            waits, _ = table.snapshot()
            assert waits[2] is None
        finally:
            table.close()
            table.unlink()

    def test_bump_invalidates_registered_wait(self, ctx):
        table = ShmWaitTable(2, ctx)
        try:
            table.enter_wait(0, "MPI_Wait", "", frozenset({1}))
            table.bump(0)
            waits, gens = table.snapshot()
            assert waits[0][3] != gens[0]  # wait is stale: progress happened
            table.bump_all()
            _, gens2 = table.snapshot()
            assert gens2 == [g + 1 for g in gens]
        finally:
            table.close()
            table.unlink()

    def test_rank_limit(self, ctx):
        with pytest.raises(ValueError):
            ShmWaitTable(WAIT_TABLE_MAX_RANKS + 1, ctx)


# --------------------------------------------------------------- backoff
class TestBackoffController:
    def test_spins_then_parks_with_growth(self):
        b = BackoffController(spin=3, park_min_s=1e-6, park_max_s=8e-6)
        for _ in range(3):
            b.pause()
        assert (b.spins_total, b.parks_total) == (3, 0)
        for _ in range(5):
            b.pause()
        assert b.parks_total == 5
        # Doubling from the floor, capped: 1, 2, 4, 8, 8 (microseconds).
        assert b.parked_s_total == pytest.approx(23e-6)
        assert b._park_s == 8e-6

    def test_reset_returns_to_spin_phase(self):
        b = BackoffController(spin=2, park_min_s=1e-6, park_max_s=8e-6)
        for _ in range(6):
            b.pause()
        b.reset()
        assert b._park_s == b.park_min_s
        b.pause()
        assert b.spins_total >= 3  # back to yielding, not parking

    def test_poll_interval_reports_floor_then_ewma(self):
        b = BackoffController(spin=0, park_min_s=1e-4, park_max_s=1e-4)
        assert b.poll_interval_us == pytest.approx(100.0)
        b.pause()
        assert b.poll_interval_us == pytest.approx(100.0)

    def test_ring_wait_counters(self, ring, flag):
        ring.send(b"abc", flag)
        ring.recv(flag)
        # Frame was already there: the reader never had to park.
        assert ring.rx_backoff.parks_total == 0

        def late_send():
            ring.send(b"later", flag)

        t = threading.Timer(0.05, late_send)
        t.start()
        try:
            assert bytes(ring.recv(flag)) == b"later"
        finally:
            t.cancel()
        # ~50 ms of empty ring: the reader must have parked.
        assert ring.rx_backoff.parks_total > 0
        assert ring.rx_backoff.poll_interval_us >= 20.0


# ------------------------------------------------------- vectored writes
class TestSendSegments:
    def test_segments_concatenate_into_one_frame(self, ring, flag):
        arr = np.arange(8, dtype=np.float64)
        n = ring.send_segments(
            [b"head", memoryview(arr).cast("B"), b"tail"], flag)
        assert n == 4 + arr.nbytes + 4
        frame = ring.recv(flag)
        assert isinstance(frame, bytearray)
        assert frame[:4] == b"head" and frame[-4:] == b"tail"
        assert np.frombuffer(frame, dtype=np.float64,
                             count=8, offset=4).tolist() == arr.tolist()

    def test_interleaved_with_plain_sends(self, ring, flag):
        ring.send(b"one", flag)
        ring.send_segments([b"tw", b"o"], flag)
        ring.send(b"three", flag)
        assert [bytes(ring.recv(flag)) for _ in range(3)] == \
            [b"one", b"two", b"three"]


# ------------------------------------------------------------ frame codec
class TestFrameCodec:
    def _env(self, payload, **kw):
        return Envelope(source=1, dest=2, tag=42, payload=payload,
                        nbytes=kw.get("nbytes", 128),
                        cost_us=kw.get("cost_us", 12.5))

    def test_pickle_roundtrip(self):
        env = self._env({"a": [1, 2], "b": "text"})
        kind, context, recoverable, out = codec.decode(
            codec.encode_bytes(DELIVERED, "world", env))
        assert kind == DELIVERED
        assert context == "world"
        assert recoverable is True
        assert out.payload == env.payload
        assert (out.source, out.dest, out.tag) == (1, 2, 42)
        assert out.nbytes == env.nbytes
        assert out.cost_us == env.cost_us
        assert out.seq == env.seq

    def test_ndarray_fast_path(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, 1:4]  # strided
        env = self._env(arr)
        frame = codec.encode_bytes(DELIVERED, "world", env)
        assert frame[0] == codec.F_NDARRAY  # no whole-array pickling
        _, _, _, out = codec.decode(frame)
        assert isinstance(out.payload, np.ndarray)
        assert out.payload.dtype == arr.dtype
        assert out.payload.shape == arr.shape
        np.testing.assert_array_equal(out.payload, arr)
        # Decoded from read-only bytes: the payload is a private copy.
        assert out.payload.flags.writeable

    def test_object_array_falls_back_to_pickle(self):
        arr = np.array([{"x": 1}, None], dtype=object)
        frame = codec.encode_bytes(DELIVERED, "world", self._env(arr))
        assert frame[0] == codec.F_PICKLE
        _, _, _, out = codec.decode(frame)
        assert list(out.payload) == [{"x": 1}, None]

    def test_drop_kinds_and_stop(self):
        env = self._env(None)
        for kind, rec in ((RETRANSMITTED, True),
                          (LOST, False)):
            k, _, r, _ = codec.decode(
                codec.encode_bytes(kind, "world", env, rec))
            assert (k, r) == (kind, rec)
        assert codec.decode(codec.STOP_FRAME) is None


# ----------------------------------------------------------- seqno rebase
def test_rebase_seqno_partitions_per_rank():
    saved = next(msg_mod._seqno)
    try:
        msg_mod.rebase_seqno(3)
        env = Envelope(source=0, dest=1, tag=0, payload=None, nbytes=0,
                       cost_us=0.0)
        assert (3 + 1) << 44 <= env.seq < (3 + 2) << 44
    finally:
        msg_mod._seqno = itertools.count(saved + 1)
