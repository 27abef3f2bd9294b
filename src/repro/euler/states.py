"""The States component: interface-state reconstruction.

Converts a patch's conserved stack to primitive variables and reconstructs
limited left/right states at the sweep interfaces, one line at a time (see
:mod:`repro.euler.kernels` for the sequential/strided mode semantics).

The paper models this component's execution time as a power law in the
array size Q (Eq. 1: ``T_states = exp(1.19 log(Q) - 3.68)``) with a large
standard deviation caused by averaging the two access modes (Figure 6).
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.services import Services
from repro.euler.eos import GAMMA_DEFAULT, P_FLOOR, RHO_FLOOR
from repro.euler.kernels import (check_mode, get_line, out_array, out_line,
                                 reconstruct_into, sweep_layout, sweep_view)
from repro.euler.ports import StatesPort
from repro.tau.hardware import AccessPattern, HardwareCounters

#: rough floating point operations per cell for one States sweep
FLOPS_PER_CELL = 26

#: target footprint of one batched tile's line data (bytes).  States is
#: memory-bound: one flat batch of all lines spills its temporaries to
#: DRAM and runs *slower* than the per-line loop at large Q, so the
#: batched path processes cache-sized tiles of lines instead — Python
#: overhead drops by the tile factor while working sets stay resident.
TILE_BYTES = 64 * 1024


class StatesKernel:
    """Primitive reconstruction, batched by default.

    ``batch=True`` converts and reconstructs every line of a sweep in one
    vectorized pass over the (strided, for mode "y") sweep view;
    ``batch=False`` restores the historical line-at-a-time loop.

    ``counters`` (optional) receives PAPI-style access/FLOP reports so the
    TAU hardware metrics reflect the kernel's traffic.
    """

    def __init__(
        self,
        gamma: float = GAMMA_DEFAULT,
        nghost: int = 2,
        counters: HardwareCounters | None = None,
        batch: bool = True,
    ) -> None:
        if nghost < 2:
            raise ValueError(f"StatesKernel needs nghost >= 2, got {nghost}")
        self.gamma = float(gamma)
        self.nghost = int(nghost)
        self.counters = counters
        self.batch = bool(batch)

    def compute(self, U: np.ndarray, mode: str = "x") -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct ``(WL, WR)`` interface states for one sweep.

        ``U``: conserved stack ``(4, Ni, Nj)`` including ghosts.  Outputs
        are in *patch orientation*: ``(4, nlines, nf)`` for mode "x" and
        ``(4, nf, nlines)`` for mode "y" (interfaces along the strided
        axis), where nlines counts interior lines perpendicular to the
        sweep and nf interfaces per line.
        """
        check_mode(mode)
        if U.ndim != 3 or U.shape[0] != 4:
            raise ValueError(f"expected conserved stack (4, Ni, Nj), got {U.shape}")
        g = self.nghost
        nlines, nf = sweep_layout(U.shape[1:], g, mode)
        WL = out_array(4, mode, nlines, nf)
        WR = out_array(4, mode, nlines, nf)
        gm1 = self.gamma - 1.0
        if self.batch:
            # Cache-blocked batches of lines.  The sweep view is strided
            # in mode "y", so the primitive conversion still walks the
            # conserved stack with the stride of one row — the same memory
            # behaviour the per-line loop had, minus its Python overhead.
            V = sweep_view(U, mode)
            WLs = sweep_view(WL, mode)
            WRs = sweep_view(WR, mode)
            n_along = V.shape[2]
            tile = max(4, TILE_BYTES // (8 * n_along))
            for i0 in range(0, nlines, tile):
                i1 = min(i0 + tile, nlines)
                lines = V[:, g + i0 : g + i1, :]
                r = np.maximum(lines[0], RHO_FLOOR)
                mn = lines[1] if mode == "x" else lines[2]  # sweep-normal momentum
                mt = lines[2] if mode == "x" else lines[1]  # tangential momentum
                E = lines[3]
                W = np.empty((4,) + r.shape, dtype=np.float64)
                W[0] = r
                np.divide(mn, r, out=W[1])
                np.divide(mt, r, out=W[2])
                np.maximum(gm1 * (E - 0.5 * (mn * mn + mt * mt) / r), P_FLOOR,
                           out=W[3])
                reconstruct_into(W, g, WLs[:, i0:i1], WRs[:, i0:i1])
        else:
            n_along = U.shape[2] if mode == "x" else U.shape[1]
            W = np.empty((4, n_along), dtype=np.float64)
            for ell in range(nlines):
                # Strided loads in mode "y": each slice walks a column.
                line = get_line(U, mode, g, ell)
                r = np.maximum(line[0], RHO_FLOOR)
                mn = line[1] if mode == "x" else line[2]  # sweep-normal momentum
                mt = line[2] if mode == "x" else line[1]  # tangential momentum
                E = line[3]
                W[0] = r
                np.divide(mn, r, out=W[1])
                np.divide(mt, r, out=W[2])
                np.maximum(gm1 * (E - 0.5 * (mn * mn + mt * mt) / r), P_FLOOR, out=W[3])
                reconstruct_into(W, g, out_line(WL, mode, ell),
                                 out_line(WR, mode, ell))
        if self.counters is not None:
            q = int(U.shape[1] * U.shape[2])
            pattern = AccessPattern.SEQUENTIAL if mode == "x" else AccessPattern.STRIDED
            self.counters.record_array_walk(
                q, pattern=pattern, stride_elements=(1 if mode == "x" else U.shape[2]),
                passes=4,
            )
            self.counters.record_flops(FLOPS_PER_CELL * q)
        return WL, WR


class StatesComponent(Component, StatesPort):
    """CCA packaging of :class:`StatesKernel` (provides port ``"states"``)."""

    PORT_NAME = "states"
    FUNCTIONALITY = "states"

    def __init__(self, gamma: float = GAMMA_DEFAULT, nghost: int = 2,
                 batch: bool = True) -> None:
        self._gamma = gamma
        self._nghost = nghost
        self._batch = bool(batch)
        self._kernel: StatesKernel | None = None

    def set_services(self, services: Services) -> None:
        # Adopt the framework profiler's hardware counters so TAU's PAPI
        # metrics include this component's traffic.
        counters = services.framework.profiler.counters
        self._kernel = StatesKernel(self._gamma, self._nghost, counters,
                                    batch=self._batch)
        services.add_provides_port(self, self.PORT_NAME, StatesPort)

    @property
    def kernel(self) -> StatesKernel:
        if self._kernel is None:
            # Standalone (non-framework) use: lazily build an uncounted kernel.
            self._kernel = StatesKernel(self._gamma, self._nghost,
                                        batch=self._batch)
        return self._kernel

    def compute(self, U: np.ndarray, mode: str = "x") -> tuple[np.ndarray, np.ndarray]:
        return self.kernel.compute(U, mode)
