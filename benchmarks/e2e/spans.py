"""External per-layer tracing for the end-to-end benchmark.

The program under test is not edited: while :func:`installed` is active,
the public functions at each layer boundary (listed in :func:`_targets`)
are replaced by timing wrappers, and removed again on exit.  A wrapper
records nothing unless the calling thread opened a rank trace with
:func:`begin_rank`, so launcher threads and the mp-shm receiver threads
pass straight through.

Spans are not stored one by one (a run makes ~10^5 of them): each rank
keeps a stack of open spans in thread-local state and folds a closing
span into per-name totals — self time (duration minus the part covered
by child spans), call count and an optional work count.  The fold is a
plain dict, so a forked mp-shm rank returns it through ``extract`` like
any other result.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.util.timebase import now_us

#: work-count hook: ``measure(args, kwargs, result) -> {counter: amount}``
Measure = Callable[[tuple, dict, Any], dict[str, float]]

_tls = threading.local()


class _RankState:
    __slots__ = ("t0", "stack", "self_us", "calls", "counts")

    def __init__(self) -> None:
        self.t0 = now_us()
        #: one child-time accumulator per open span; [0] is the root's
        self.stack: list[list[float]] = [[0.0]]
        self.self_us: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}


def begin_rank() -> None:
    """Open this thread's root span (call first thing in ``compose``)."""
    _tls.state = _RankState()


def end_rank() -> dict[str, Any] | None:
    """Close the root span and return this rank's fold (None if untraced).

    ``root_us`` is the root span's duration; ``self_us["rank.other"]`` is
    the root's own self time, so the ``self_us`` values sum to ``root_us``.
    """
    state: _RankState | None = getattr(_tls, "state", None)
    if state is None:
        return None
    root_us = now_us() - state.t0
    del _tls.state
    state.self_us["rank.other"] = root_us - state.stack[0][0]
    return {"root_us": root_us, "self_us": state.self_us,
            "calls": state.calls, "counts": state.counts}


def _traced(fn: Callable[..., Any], name: str,
            measure: Measure | None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state: _RankState | None = getattr(_tls, "state", None)
        if state is None:
            return fn(*args, **kwargs)
        children = [0.0]
        stack = state.stack
        stack.append(children)
        t0 = now_us()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = now_us() - t0
            stack.pop()
            stack[-1][0] += dt
            state.self_us[name] = state.self_us.get(name, 0.0) + dt - children[0]
            state.calls[name] = state.calls.get(name, 0) + 1
        if measure is not None:
            counts = state.counts
            for key, amount in measure(args, kwargs, result).items():
                counts[key] = counts.get(key, 0.0) + amount
        return result

    return wrapper


def _array_bytes(*groups: Any) -> float:
    total = 0
    for group in groups:
        for item in group if isinstance(group, (tuple, list)) else (group,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return float(total)


def _kernel_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    # Bytes the kernel reads and writes, from array sizes alone: cache
    # misses are not seen, hence "computed".
    return {"euler.bytes_computed": _array_bytes(args[1:], result)}


def _cell_updates(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"euler.cell_updates": float(result.shape[-2] * result.shape[-1])}


def _transfers(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"amr.transfers": float(len(args[0]))}


def _sent_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    from repro.mpi.network import payload_nbytes

    return {"mpi.bytes_computed": float(payload_nbytes(args[1]))}


def _targets() -> list[tuple[Any, str, str, Measure | None]]:
    """``(owner, attribute, span name, measure)`` for every wrapped function.

    ``waitsome`` appears twice because ``repro.amr.ghost`` binds it by
    name at import time; both bindings get the same span name.
    """
    from repro.amr import ghost
    from repro.amr.hierarchy import GridHierarchy
    from repro.euler.efm import EFMFluxComponent
    from repro.euler.godunov import GodunovFluxComponent
    from repro.euler.inviscid import InviscidFluxComponent
    from repro.euler.rk2 import RK2Component
    from repro.euler.states import StatesComponent
    from repro.mpi import request
    from repro.mpi.comm import SimComm

    targets: list[tuple[Any, str, str, Measure | None]] = [
        (StatesComponent, "compute", "euler.states", _kernel_bytes),
        (EFMFluxComponent, "compute", "euler.efm", _kernel_bytes),
        (GodunovFluxComponent, "compute", "euler.godunov", _kernel_bytes),
        (InviscidFluxComponent, "flux_divergence", "euler.flux_divergence",
         _cell_updates),
        (RK2Component, "advance", "euler.rk2", None),
        (RK2Component, "compute_dt", "euler.rk2", None),
        (ghost, "plan_same_level_exchange", "amr.plan", None),
        (ghost, "execute_transfers", "amr.execute_transfers", _transfers),
        (GridHierarchy, "ghost_update", "amr.ghost_update", None),
        (GridHierarchy, "sync_down", "amr.sync_down", None),
        (GridHierarchy, "regrid", "amr.regrid", None),
        (SimComm, "isend", "mpi.isend", _sent_bytes),
        (SimComm, "irecv", "mpi.irecv", None),
        (request, "waitsome", "mpi.waitsome", None),
        (ghost, "waitsome", "mpi.waitsome", None),
    ]
    for name in ("barrier", "bcast", "gather", "allgather", "scatter",
                 "alltoall", "reduce", "allreduce", "scan", "dup"):
        targets.append((SimComm, name, "mpi.collectives", None))
    return targets


def wrapped_attributes() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` that :func:`installed` replaces."""
    return [(owner, attr) for owner, attr, _name, _m in _targets()]


@contextmanager
def installed() -> Iterator[None]:
    """Wrap every layer boundary; restore the identical objects on exit."""
    originals = []
    try:
        for owner, attr, name, measure in _targets():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _traced(original, name, measure))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
