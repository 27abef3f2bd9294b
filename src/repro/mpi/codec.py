"""Wire codec for the simulated-MPI transport (DESIGN.md §14).

One module owns every serialization decision on the communication hot
path; RA008 keeps ad-hoc ``pickle.dumps`` calls from creeping back into
the rest of :mod:`repro.mpi`.  Two frame families share a fixed
struct-packed header:

* ``F_NDARRAY`` — the fast path: all envelope fields live in the packed
  header, the dtype travels as its ``dtype.str`` (or pickled, for
  structured/user dtypes), the shape as raw ``int64`` dims, and the
  array body is referenced as a **memoryview** of the (contiguous)
  source buffer — :func:`encode` never calls ``tobytes()``, the ring
  writes the view directly, and :func:`decode` wraps the received
  buffer with ``np.frombuffer`` without copying when the buffer is
  writable (the receiver owns each frame exclusively).
* ``F_PICKLE`` — the fallback for rich payloads (dicts, dataclasses,
  object arrays): header + pickled payload.  Envelope fields still ride
  in the header, so even the fallback pickles only the payload, not the
  whole envelope.

A one-byte ``F_STOP`` marker (:data:`STOP_FRAME`) ends a receiver loop.

The module also centralizes payload *sizing*: :func:`pickled_size` is
the memoized pickle-length oracle behind
:func:`repro.mpi.network.payload_nbytes` (cache keys are exact — two
payloads share a key only when their pickles provably have equal
length), and :func:`transport_nbytes` is the cheap size used for
zero-cost transport frames that bypass the accounting entirely.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

import numpy as np

from repro.mpi.message import Envelope

_PROTO = pickle.HIGHEST_PROTOCOL

# ------------------------------------------------------------ frame kinds
F_PICKLE = 0
F_NDARRAY = 1
F_STOP = 2

#: one-byte end-of-job marker a worker writes into its own ring
STOP_FRAME = bytes([F_STOP])

_FLAG_RECOVERABLE = 0x01
_FLAG_TRACE = 0x02
_FLAG_DTYPE_PICKLED = 0x04

#: fkind, kind, flags, ndim, ctx_len, dtype_len, source, dest, tag,
#: nbytes, cost_us, seq, trace_rank, trace_span
HEADER = struct.Struct("<BBBBHHiiqqdQiQ")


# ---------------------------------------------------------------- helpers
_DTYPE_CACHE: dict[Any, tuple[bytes, int]] = {}


def _dtype_bytes(dt: np.dtype) -> tuple[bytes, int]:
    """(wire bytes, header flag) for a dtype; simple dtypes travel as
    their ``.str`` descriptor, structured/user dtypes are pickled."""
    try:
        return _DTYPE_CACHE[dt]
    except KeyError:
        pass
    if dt.names is None and np.dtype(dt.str) == dt:
        out = (dt.str.encode("ascii"), 0)
    else:
        out = (pickle.dumps(dt, protocol=_PROTO), _FLAG_DTYPE_PICKLED)
    if len(_DTYPE_CACHE) < 256:
        _DTYPE_CACHE[dt] = out
    return out


# Per-frame micro-caches for the hot path.  A job uses a handful of
# message contexts, dtypes and array ranks, so each of these is a tiny
# dict hit after the first frame; all are capped so adversarial inputs
# degrade to the uncached cost instead of unbounded memory.
_CTX_ENCODE: dict[str, bytes] = {}
_CTX_DECODE: dict[bytes, str] = {}
_DTYPE_DECODE: dict[bytes, np.dtype] = {}
_SHAPE_STRUCTS: dict[int, struct.Struct] = {}


def _ctx_bytes(context: str) -> bytes:
    try:
        return _CTX_ENCODE[context]
    except KeyError:
        b = context.encode("utf-8")
        if len(_CTX_ENCODE) < 256:
            _CTX_ENCODE[context] = b
        return b


def _ctx_str(raw: bytes) -> str:
    try:
        return _CTX_DECODE[raw]
    except KeyError:
        s = str(raw, "utf-8")
        if len(_CTX_DECODE) < 256:
            _CTX_DECODE[raw] = s
        return s


def _decode_dtype(raw: bytes) -> np.dtype:
    try:
        return _DTYPE_DECODE[raw]
    except KeyError:
        dt = np.dtype(str(raw, "ascii"))
        if len(_DTYPE_DECODE) < 256:
            _DTYPE_DECODE[raw] = dt
        return dt


def _shape_struct(ndim: int) -> struct.Struct:
    try:
        return _SHAPE_STRUCTS[ndim]
    except KeyError:
        s = struct.Struct(f"<{ndim}q")
        _SHAPE_STRUCTS[ndim] = s
        return s


def _array_body(arr: np.ndarray) -> Any:
    """The raw bytes of a contiguous array, as a view when possible."""
    try:
        return memoryview(arr).cast("B")
    except (BufferError, TypeError, ValueError, NotImplementedError):
        return arr.tobytes()


# ----------------------------------------------------------------- encode
def encode(kind: int, context: str, env: Envelope,
           recoverable: bool = True) -> list[Any]:
    """Encode one transport record as a list of wire segments.

    The concatenation of the returned segments is the frame; callers
    feeding a ring pass them to ``send_segments`` so the array body —
    returned as a memoryview, never copied — is written straight from
    the envelope's payload buffer.  ``kind`` is the transport-level
    record kind (deliver/drop), opaque to the codec.
    """
    flags = _FLAG_RECOVERABLE if recoverable else 0
    tctx = env.trace_ctx
    if tctx is not None:
        flags |= _FLAG_TRACE
        trace_rank, trace_span = tctx
    else:
        trace_rank, trace_span = -1, 0
    ctx_b = _ctx_bytes(context)
    payload = env.payload
    if isinstance(payload, np.ndarray) and not payload.dtype.hasobject:
        arr = (payload if payload.flags.c_contiguous
               else np.ascontiguousarray(payload))
        dtype_b, dflag = _dtype_bytes(arr.dtype)
        header = HEADER.pack(
            F_NDARRAY, kind, flags | dflag, arr.ndim, len(ctx_b),
            len(dtype_b), env.source, env.dest, env.tag, env.nbytes,
            env.cost_us, env.seq, trace_rank, trace_span)
        ndim = arr.ndim
        shape_b = _shape_struct(ndim).pack(*arr.shape) if ndim else b""
        # One joined metadata segment + the body view: ring writes are
        # per-segment, so fewer/larger segments beat five tiny ones.
        return [header + ctx_b + dtype_b + shape_b, _array_body(arr)]
    blob = pickle.dumps(payload, protocol=_PROTO)
    header = HEADER.pack(
        F_PICKLE, kind, flags, 0, len(ctx_b), 0, env.source, env.dest,
        env.tag, env.nbytes, env.cost_us, env.seq, trace_rank, trace_span)
    return [header + ctx_b, blob]


def encode_bytes(kind: int, context: str, env: Envelope,
                 recoverable: bool = True) -> bytes:
    """One-buffer convenience form of :func:`encode` (tests, non-ring
    paths); the hot path keeps the segments separate."""
    return b"".join(encode(kind, context, env, recoverable))


# ----------------------------------------------------------------- decode
def decode(frame: Any) -> tuple[int, str, bool, Envelope] | None:
    """Inverse of :func:`encode`; ``None`` for the stop marker.

    Accepts any bytes-like object.  When the buffer is writable (the
    receiver-owned bytearray a ring hands back), the decoded array
    payload is a zero-copy view into it; read-only buffers are copied so
    receivers always own a mutable payload.
    """
    mv = frame if isinstance(frame, memoryview) else memoryview(frame)
    if mv[0] == F_STOP:
        return None
    (fkind, kind, flags, ndim, ctx_len, dtype_len, source, dest, tag,
     nbytes, cost_us, seq, trace_rank, trace_span) = HEADER.unpack_from(mv, 0)
    off = HEADER.size
    context = _ctx_str(bytes(mv[off:off + ctx_len]))
    off += ctx_len
    payload: Any
    if fkind == F_NDARRAY:
        if flags & _FLAG_DTYPE_PICKLED:
            dt = pickle.loads(mv[off:off + dtype_len])
        else:
            dt = _decode_dtype(bytes(mv[off:off + dtype_len]))
        off += dtype_len
        shape = _shape_struct(ndim).unpack_from(mv, off) if ndim else ()
        off += 8 * ndim
        count = 1
        for d in shape:
            count *= d
        payload = np.frombuffer(mv, dtype=dt, count=count, offset=off)
        if not payload.flags.writeable:
            payload = payload.copy()
        if shape != payload.shape:
            payload = payload.reshape(shape)
    elif fkind == F_PICKLE:
        payload = pickle.loads(mv[off:])
    else:
        raise ValueError(f"unknown frame kind {fkind}")
    env = Envelope(
        source=source, dest=dest, tag=tag, payload=payload, nbytes=nbytes,
        cost_us=cost_us, seq=seq,
        trace_ctx=((trace_rank, trace_span) if flags & _FLAG_TRACE
                   else None))
    return kind, context, bool(flags & _FLAG_RECOVERABLE), env


# ----------------------------------------------------------- payload sizes
_SIZE_CACHE: dict[Any, int] = {}
_SIZE_CACHE_MAX = 4096


def _signature(obj: Any) -> Any:
    """Exact-size cache key for :func:`pickled_size`, or None.

    A key is produced only when pickle's output *length* is a pure
    function of it.  That rules out anything pickle memoizes by object
    identity: two equal-but-distinct strings in one tuple pickle longer
    than the same string object twice, so tuples admit only the
    identity-free scalars (int/float/bool/None), while str/bytes are
    keyed at top level where exactly one occurrence exists.  Size-
    constant classes (float/bool/None) share one key; int and str key by
    value, bytes by length.
    """
    t = obj.__class__
    if t is int:
        return ("i", obj)
    if t is float:
        return "f"
    if t is bool:
        return "b"
    if obj is None:
        return "n"
    if t is str:
        return ("s", obj)
    if t is bytes:
        return ("y", len(obj))
    if t is tuple:
        parts: list[Any] = ["t"]
        for e in obj:
            et = e.__class__
            if et is int:
                parts.append(("i", e))
            elif et is float:
                parts.append("f")
            elif et is bool:
                parts.append("b")
            elif e is None:
                parts.append("n")
            else:
                return None
        return tuple(parts)
    return None


def pickled_size(obj: Any) -> int:
    """``len(pickle.dumps(obj))`` with an exact memo for hot signatures.

    Repeated small control payloads — ``(rank, i)`` tuples, step
    counters, tags — dominate the sizing path; unsignable payloads fall
    through to a full pickle every time, so the cache can never change a
    modeled byte count.
    """
    sig = _signature(obj)
    if sig is None:
        return len(pickle.dumps(obj, protocol=_PROTO))
    try:
        return _SIZE_CACHE[sig]
    except KeyError:
        n = len(pickle.dumps(obj, protocol=_PROTO))
        if len(_SIZE_CACHE) >= _SIZE_CACHE_MAX:
            _SIZE_CACHE.clear()
        _SIZE_CACHE[sig] = n
        return n


def transport_nbytes(obj: Any) -> int:
    """Cheap informational size for zero-cost transport envelopes.

    Transport frames (collective tree hops, sanitizer tokens riding in
    them, the final barrier) bypass accounting, fault injection and the
    sanitizers; their ``nbytes`` is never charged or compared, so an
    exact pickled size would be pure overhead — gather payloads grow to
    whole per-rank dicts.  Buffers report their real size, rich objects
    a flat 0.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return 0
