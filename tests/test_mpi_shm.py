"""Unit tests for the mp-shm backend's shared-memory primitives.

Covers the byte ring (framing, wrap-around, oversize streaming, vectored
segment writes, abort), its doorbells, the cross-process wait table, the
wire frame codec, sequence-number rebasing — everything below
:class:`~repro.mpi.mpshm.MpShmBackend` — and the transport metrics a
2-rank mp-shm case study exports, which count one ring write per remote
deliver.  (Deep codec coverage lives in
``tests/test_mpi_codec.py``.)

The doorbell tests count, they do not time: two threads are ordered
through the ring header's announce bits, never through a sleep.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import struct
import threading
import time

import numpy as np
import pytest

from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi import codec, create_world
from repro.mpi import message as msg_mod
from repro.mpi import shm
from repro.mpi.backend import JobSpec
from repro.mpi.message import DELIVERED, LOST, RETRANSMITTED, Envelope
from repro.mpi.mpshm import ShmWorld
from repro.mpi.shm import (_DATA_WAITER, _ROOM_WAITER, WAIT_TABLE_MAX_RANKS,
                           RingAborted, ShmFlag, ShmRing, ShmWaitTable)
from repro.obs import ObsConfig
from repro.util.rng import make_rng


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


def _until(pred, what: str, timeout_s: float = 30.0) -> None:
    """Yield the GIL until ``pred()`` holds (an announce bit, usually)."""
    deadline = time.monotonic() + timeout_s
    while not pred():
        assert time.monotonic() < deadline, f"never saw {what}"
        time.sleep(0)


def _counts(ring: ShmRing) -> tuple[int, int, int, int]:
    return ring.waits, ring.bells, ring.timeouts, ring.stale_wakes


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
        # A frame larger than the whole ring trickles through on the room
        # bell: the writer fills the ring and sleeps, and each time the
        # reader frees space it rings the writer back in.
        big = make_rng(0).integers(
            0, 256, size=3 * ring.capacity, dtype=np.uint8).tobytes()
        t = threading.Thread(target=ring.send, args=(big, flag))
        t.start()
        _until(lambda: ring.waiting() & _ROOM_WAITER, "the writer's announce")
        frame = ring.recv(flag)
        t.join(timeout=30)
        assert not t.is_alive()
        assert frame == big
        assert ring.waits >= 1 and ring.bells >= 1
        assert (ring.timeouts, ring.stale_wakes) == (0, 0)

    def test_recv_abort_on_empty(self, ring, flag):
        flag.set()
        with pytest.raises(RingAborted):
            ring.recv(flag)
        assert ring.waits == 0  # the flag is checked before sleeping

    def test_send_abort_on_full(self, ring, flag, monkeypatch):
        # A flag raised with no bell (its raiser died before ringing) is
        # still noticed: the backstop ends the sleep and the writer
        # re-checks.  No reader: a frame larger than the ring blocks.
        monkeypatch.setattr(shm, "BACKSTOP_S", 0.05)

        def arm():
            # ``waits`` counts a sleep past its pre-sleep flag check.
            _until(lambda: ring.waits, "the writer's sleep")
            flag.set()

        t = threading.Thread(target=arm)
        t.start()
        with pytest.raises(RingAborted):
            ring.send(bytes(2 * ring.capacity), flag)
        t.join(timeout=30)
        assert not t.is_alive()
        assert ring.timeouts >= 1 and ring.bells == 0

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
        finally:
            table.close()
            table.unlink()

    def test_rank_limit(self, ctx):
        with pytest.raises(ValueError):
            ShmWaitTable(WAIT_TABLE_MAX_RANKS + 1, ctx)


# ------------------------------------------------------------- doorbells
class TestDoorbells:
    def test_send_then_recv_rings_no_bell(self, ring, flag):
        # Nobody announced, so nobody rings: an uncontended send and
        # receive make no semaphore call.
        for payload in (b"abc", bytes(3000), b""):
            ring.send(payload, flag)
            assert ring.recv(flag) == payload
        assert _counts(ring) == (0, 0, 0, 0)
        assert ring.waiting() == 0

    def test_blocked_reader_woken_by_send(self, ring, flag):
        out = {}
        t = threading.Thread(target=lambda: out.update(frame=ring.recv(flag)))
        t.start()
        _until(lambda: ring.waiting() & _DATA_WAITER, "the reader's announce")
        ring.send(b"later", flag)
        t.join(timeout=30)
        assert not t.is_alive()
        assert bytes(out["frame"]) == b"later"
        # waits, bells, backstop timeouts, stale wakes: one frame, one
        # publish, one bell.
        assert _counts(ring) == (1, 1, 0, 0)
        assert ring.waiting() == 0

    def test_abort_wakes_blocked_reader_and_writer(self, ctx, flag):
        empty, full = ShmRing(4096, ctx), ShmRing(4096, ctx)
        world = ShmWorld(JobSpec(2), 0, [empty, full], flag, None)
        raised = []

        def blocked(op):
            try:
                op()
            except RingAborted:
                raised.append(op)

        reader = threading.Thread(target=blocked,
                                  args=(lambda: empty.recv(flag),))
        writer = threading.Thread(
            target=blocked,
            args=(lambda: full.send(bytes(2 * full.capacity), flag),))
        try:
            reader.start()
            writer.start()
            # Past the announce bit and the pre-sleep flag check: only a
            # bell (or the backstop) can end these sleeps now.
            _until(lambda: empty.waits, "the reader's sleep")
            _until(lambda: full.waits, "the writer's sleep")
            world.abort("test")
            reader.join(timeout=30)
            writer.join(timeout=30)
            assert not reader.is_alive() and not writer.is_alive()
            assert len(raised) == 2
            assert (empty.waits, empty.timeouts) == (1, 0)
            assert (full.waits, full.timeouts) == (1, 0)
        finally:
            for r in (empty, full):
                r.close()
                r.unlink()


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


# ------------------------------------------------------ transport metrics
#: the e2e benchmark's mpshm_bare mesh at its smoke size (two steps)
_MPSHM_SMOKE = DriverParams(nx=64, ny=64, max_levels=3, steps=2,
                            regrid_every=2, max_patch_cells=1024)


def _transport_metrics():
    res = run_case_study(CaseStudyConfig(
        params=_MPSHM_SMOKE, flux="efm", nranks=2, backend="mp-shm",
        observe=ObsConfig()))
    assert res.results == [0, 0]
    return [{(name, dict(labels).get("woke")): inst.value
             for name, labels, inst in ro.metrics.series()
             if name.startswith("shm_")}
            for ro in res.world.obs]


def test_transport_metrics_exported_per_rank():
    runs = [_transport_metrics() for _ in range(2)]
    for ranks in runs:
        for got in ranks:
            assert got[("shm_frames_sent_total", None)] > 0
            waits = {w: got[("shm_ring_waits_total", w)]
                     for w in ("bell", "stale", "backstop")}
            # Every bell brought bytes or room: no wake without progress.
            assert waits["stale"] == 0, waits
    # One frame per remote deliver, so the frames on the wire are the
    # program's sends and do not depend on timing.
    assert ([r[("shm_frames_sent_total", None)] for r in runs[0]]
            == [r[("shm_frames_sent_total", None)] for r in runs[1]])


#: small sends in the burst below
_BURST = 80


def _burst_to_peer(comm):
    """Rank 0 sends ``_BURST`` small messages, then one 24 KB array, to
    rank 1 before anything blocks it."""
    if comm.rank == 0:
        for i in range(_BURST):
            comm.send(i, dest=1, tag=5)
        comm.send(np.zeros(3000), dest=1, tag=6)
        return None
    got = [comm.recv(source=0, tag=5) for _ in range(_BURST)]
    comm.recv(source=0, tag=6)
    return got


def test_one_ring_write_per_remote_deliver():
    runner = create_world("mp-shm", nranks=2, obs_config=ObsConfig())
    assert runner.run(_burst_to_peer) == [None, list(range(_BURST))]
    sent = [sum(inst.value for name, _, inst in ro.metrics.series()
                if name == "shm_frames_sent_total")
            for ro in runner.last_world.obs]
    # Rank 0: _BURST small sends + 1 array send + 1 hop of the 2-rank
    # final barrier (a tree allgather: rank 0 receives rank 1's gather
    # hop, then sends it the broadcast).  Rank 1 sends only its gather hop.
    assert sent == [_BURST + 2, 1]
