"""Deep coverage of the wire codec (DESIGN.md §14): edge payload shapes,
zero-copy guarantees, oversize streaming through a real ring, the
memoized pickled-size oracle, and end-to-end transport of a burst of
small frames on the mp-shm backend — including order preservation under
a seeded fault plan that drops and duplicates messages mid-burst.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import threading

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, MessageFault
from repro.faults.policy import ResiliencePolicy
from repro.mpi import codec, create_world
from repro.mpi.message import DELIVERED, RETRANSMITTED, Envelope
from repro.mpi.shm import ShmFlag, ShmRing
from repro.util.rng import make_rng


def _env(payload, **kw):
    return Envelope(source=kw.get("source", 0), dest=kw.get("dest", 1),
                    tag=kw.get("tag", 7), payload=payload,
                    nbytes=kw.get("nbytes", 64),
                    cost_us=kw.get("cost_us", 3.25),
                    trace_ctx=kw.get("trace_ctx"))


def _roundtrip(payload, **kw):
    kind, context, recoverable, out = codec.decode(
        codec.encode_bytes(DELIVERED, "world", _env(payload, **kw)))
    assert (kind, context) == (DELIVERED, "world")
    return out


# ------------------------------------------------------- payload edge cases
class TestArrayEdgeCases:
    def test_zero_dim_array(self):
        out = _roundtrip(np.float64(3.5) + np.zeros(()))
        assert out.payload.shape == ()
        assert out.payload.dtype == np.float64
        assert float(out.payload) == 3.5

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 2)])
    def test_empty_arrays_keep_shape(self, shape):
        out = _roundtrip(np.empty(shape, dtype=np.int32))
        assert out.payload.shape == shape
        assert out.payload.dtype == np.int32

    def test_fortran_order_and_strided_views(self):
        base = np.arange(60, dtype=np.float32).reshape(5, 12)
        for arr in (np.asfortranarray(base), base[::2, 1::3], base.T):
            out = _roundtrip(arr)
            np.testing.assert_array_equal(out.payload, arr)
            assert out.payload.shape == arr.shape

    def test_structured_dtype_is_pickled_dtype_fast_frame(self):
        dt = np.dtype([("x", "<f8"), ("n", "<i4")])
        arr = np.array([(1.5, 2), (3.25, 4)], dtype=dt)
        frame = codec.encode_bytes(DELIVERED, "world", _env(arr))
        assert frame[0] == codec.F_NDARRAY  # still the no-pickle body path
        _, _, _, out = codec.decode(frame)
        assert out.payload.dtype == dt
        np.testing.assert_array_equal(out.payload, arr)

    def test_big_endian_dtype_preserved(self):
        arr = np.arange(5, dtype=">f8")
        out = _roundtrip(arr)
        assert out.payload.dtype == np.dtype(">f8")
        np.testing.assert_array_equal(out.payload, arr)

    def test_bool_and_complex(self):
        for arr in (np.array([True, False, True]),
                    np.arange(4, dtype=np.complex128) * (1 + 2j)):
            out = _roundtrip(arr)
            assert out.payload.dtype == arr.dtype
            np.testing.assert_array_equal(out.payload, arr)

    def test_object_array_uses_pickle_family(self):
        arr = np.array([{"a": 1}, [2, 3]], dtype=object)
        frame = codec.encode_bytes(DELIVERED, "world", _env(arr))
        assert frame[0] == codec.F_PICKLE
        _, _, _, out = codec.decode(frame)
        assert list(out.payload) == [{"a": 1}, [2, 3]]


class TestHeaderFields:
    def test_trace_ctx_and_recoverable_roundtrip(self):
        env = _env(None, trace_ctx=(3, 0xDEADBEEF))
        for rec in (True, False):
            k, _, r, out = codec.decode(
                codec.encode_bytes(RETRANSMITTED, "c", env, rec))
            assert (k, r) == (RETRANSMITTED, rec)
            assert out.trace_ctx == (3, 0xDEADBEEF)

    def test_no_trace_ctx_decodes_to_none(self):
        assert _roundtrip(b"xyz").trace_ctx is None

    def test_unicode_context(self):
        _, context, _, _ = codec.decode(
            codec.encode_bytes(DELIVERED, "wörld/φ", _env(None)))
        assert context == "wörld/φ"

    def test_unknown_frame_kind_rejected(self):
        frame = bytearray(codec.encode_bytes(DELIVERED, "w", _env(None)))
        frame[0] = 99
        with pytest.raises(ValueError, match="frame kind"):
            codec.decode(frame)


# ----------------------------------------------------------------- zero-copy
class TestZeroCopy:
    def test_encode_body_aliases_source_buffer(self):
        arr = np.arange(16, dtype=np.int64)
        segments = codec.encode(DELIVERED, "world", _env(arr))
        body = segments[-1]
        assert isinstance(body, memoryview)
        arr[0] = 999  # mutate *after* encode: the segment must see it
        assert np.frombuffer(body, dtype=np.int64)[0] == 999

    def test_decode_from_writable_buffer_is_a_view(self):
        arr = np.arange(8, dtype=np.float64)
        frame = bytearray(codec.encode_bytes(DELIVERED, "world", _env(arr)))
        _, _, _, out = codec.decode(frame)
        assert out.payload.base is not None  # no copy was taken
        body_off = len(frame) - arr.nbytes
        frame[body_off:body_off + 8] = np.float64(42.0).tobytes()
        assert out.payload[0] == 42.0

    def test_decode_from_readonly_buffer_copies(self):
        arr = np.arange(8, dtype=np.float64)
        frame = codec.encode_bytes(DELIVERED, "world", _env(arr))  # bytes
        _, _, _, out = codec.decode(frame)
        assert out.payload.flags.writeable
        out.payload[0] = -1.0  # legal: receiver owns a mutable payload


# ------------------------------------------------------- oversize streaming
def test_oversize_array_frame_streams_through_ring():
    """A frame several times the ring capacity trickles through via the
    vectored write while a reader drains — no intermediate tobytes()."""
    ctx = mp.get_context("fork")
    ring, flag = ShmRing(4096, ctx), ShmFlag()
    try:
        arr = make_rng(7).integers(
            0, 1 << 30, size=3 * ring.capacity // 8, dtype=np.int64)
        segments = codec.encode(DELIVERED, "world", _env(arr))
        assert isinstance(segments[-1], memoryview)
        out = {}

        def reader():
            out["frame"] = ring.recv(flag)

        t = threading.Thread(target=reader)
        t.start()
        ring.send_segments(segments, flag)
        t.join(timeout=30)
        assert not t.is_alive()
        _, _, _, env = codec.decode(out["frame"])
        np.testing.assert_array_equal(env.payload, arr)
    finally:
        ring.close(); ring.unlink()
        flag.close(); flag.unlink()


# ------------------------------------------------------------- pickled_size
class TestPickledSize:
    @pytest.mark.parametrize("obj", [
        0, 1, -1, 255, 65536, 1 << 70, 3.25, True, False, None,
        "", "tag", "ünïcode-τ", b"", b"payload-bytes",
        (), (1, 2.5, None), (True, 2), (1, 2),
        [1, 2, 3], {"a": 1}, {"nested": (1, "x")}, ("s", "s"),
    ])
    def test_matches_real_pickle_length(self, obj):
        assert codec.pickled_size(obj) == len(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def test_memoizes_signable_values(self):
        codec._SIZE_CACHE.clear()
        codec.pickled_size((4, 2))
        assert codec._signature((4, 2)) in codec._SIZE_CACHE
        # bool and int signatures must not collide: (True, 2) != (1, 2)
        # even though the tuples compare equal.
        assert codec._signature((True, 2)) != codec._signature((1, 2))

    def test_identity_sensitive_payloads_are_unsignable(self):
        # pickle memoizes repeated strings by identity: ("s", "s") pickles
        # shorter with one shared object than with two equal copies, so no
        # cache key may exist for it.
        assert codec._signature(("s", "s")) is None
        assert codec._signature([1]) is None
        assert codec._signature({"k": 1}) is None
        assert codec._signature((1, (2, 3))) is None

    def test_cache_clears_at_capacity(self, monkeypatch):
        monkeypatch.setattr(codec, "_SIZE_CACHE_MAX", 4)
        codec._SIZE_CACHE.clear()
        for i in range(6):
            codec.pickled_size(("k", i))
        assert len(codec._SIZE_CACHE) <= 4
        codec._SIZE_CACHE.clear()


# ---------------------------------------------- burst transport end-to-end
#: small sends per rank in one burst
BURST = 80


def burst_ring(comm):
    """Each rank floods its neighbour with small frames, then drains: every
    send is on the wire before the first blocking receive."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for i in range(BURST):
        comm.send((comm.rank, i), dest=nxt, tag=5)
    comm.send(np.full(3000, comm.rank, dtype=np.float64), dest=nxt, tag=6)
    got = [comm.recv(source=prv, tag=5) for _ in range(BURST)]
    arr = comm.recv(source=prv, tag=6)
    return tuple(got), float(arr.sum())


def _faulted_burst_plan():
    # Drops and duplicates land mid-burst, between ordinary frames on
    # both backends.
    return FaultPlan(name="burst-faults", seed=21, messages=(
        MessageFault(kind="drop", source=0, index=3, count=2,
                     recoverable=True),
        MessageFault(kind="duplicate", source=1, index=5, count=2),
        MessageFault(kind="drop", source=2, index=10, count=1,
                     recoverable=True),
    ))


def _run_burst(backend, **kw):
    world = create_world(backend, nranks=3, seed=13, **kw)
    results = world.run(burst_ring)
    return results, world.last_world


def test_burst_matches_thread_backend():
    res_t, world_t = _run_burst("thread")
    res_p, world_p = _run_burst("mp-shm")
    assert res_t == res_p
    for r in range(3):
        # Fault-free: non-overtaking order holds exactly.
        prv = (r - 1) % 3
        assert res_p[r][0] == tuple((prv, i) for i in range(BURST))
        lt = {k: (round(v.total_us, 3), v.calls)
              for k, v in world_t.accounting[r].routine_totals().items()}
        lp = {k: (round(v.total_us, 3), v.calls)
              for k, v in world_p.accounting[r].routine_totals().items()}
        assert lt == lp, f"rank {r} ledger"


def test_faulted_burst_preserves_order_and_recovery():
    plan = _faulted_burst_plan()
    outs = {}
    for backend in ("thread", "mp-shm"):
        inj = FaultInjector(plan, 3)
        results, world = _run_burst(backend, injector=inj,
                                    policy=ResiliencePolicy())
        outs[backend] = (results, world)
    res_t, world_t = outs["thread"]
    res_p, world_p = outs["mp-shm"]
    assert res_t == res_p
    assert world_t.injector.total_counts() == world_p.injector.total_counts()
    assert (world_t.injector.schedule_signature()
            == world_p.injector.schedule_signature())
    assert world_t.injector.total_counts().get("mpi.recovered") == 3
    assert world_t.injector.total_counts().get("mpi.deduplicated") == 2
    for r in range(3):
        # Recovered messages keep their send position.
        assert res_p[r][0] == tuple(((r - 1) % 3, i) for i in range(BURST))
        assert (world_t.resilience[r].as_dict()
                == world_p.resilience[r].as_dict()), r
        rt = world_t.accounting[r].routine_totals().get("MPI_Retransmit")
        rp = world_p.accounting[r].routine_totals().get("MPI_Retransmit")
        assert (rt is None) == (rp is None), r
        if rt is not None:
            assert (rt.calls, rt.total_us) == (rp.calls, rp.total_us), r
