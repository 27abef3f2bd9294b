"""Line-sweep kernel machinery.

The paper's States/EFMFlux/GodunovFlux "can function in two modes —
sequential or strided array access to calculate X- or Y-derivatives
respectively — with different performance consequences."  Kernels here are
written the way the original Fortran/C++ loops were: one 1-D line at a
time along the sweep direction.

* mode ``"x"``: lines are array rows — contiguous memory (sequential);
* mode ``"y"``: lines are array columns — stride of one row (strided).

The access pattern is therefore *really* exercised on the host's memory
hierarchy: for cache-resident arrays the two modes cost about the same,
and the strided mode degrades as arrays outgrow the cache — Figures 4-5.

:func:`sweep_view` returns a view whose **axis 0 indexes lines** and whose
axis 1 runs along the sweep; for mode "y" that view is a transpose, so
``view[ell]`` is a strided column slice.

The batched flux kernels (``batch=True``, the default) do not loop over
lines and do not evaluate a whole sweep at once either: :func:`flux_tiles`
walks a sweep in tiles of at most :data:`TILE` interfaces and the kernels
evaluate each tile with ``out=`` arithmetic on the rows of a
:class:`TileWorkspace` they own, so the scratch a sweep needs is a fixed
size whatever the array size Q.  A mode "x" tile is a reshape *view* of
the patch-oriented arrays; a mode "y" tile is gathered from — and its
flux scattered through — the transposed view, so the strided access of
the dual-mode figures (4-5, 7-8) is performed by the tile copies.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MODES = ("x", "y")

#: interfaces per tile of a batched flux sweep.  ~200 ufunc calls per
#: Godunov tile cost ~0.3 ms of interpreter time whatever the tile holds,
#: which sets the floor; the ceiling is the workspace staying cache-sized
#: (DESIGN.md section 7 has the measured curve).
TILE = 8192


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def sweep_view(arr: np.ndarray, mode: str) -> np.ndarray:
    """View with lines on axis 0 and the sweep direction on axis 1.

    ``mode="x"``: identity (rows are contiguous lines).
    ``mode="y"``: transpose (rows of the view are strided columns).
    Works on ``(Ni, Nj)`` arrays and on stacked ``(K, Ni, Nj)`` arrays
    (the stack axis is preserved).
    """
    check_mode(mode)
    if arr.ndim == 2:
        return arr if mode == "x" else arr.T
    if arr.ndim == 3:
        return arr if mode == "x" else arr.transpose(0, 2, 1)
    raise ValueError(f"expected 2-D or stacked 3-D array, got shape {arr.shape}")


def unsweep(arr: np.ndarray, mode: str) -> np.ndarray:
    """Inverse of :func:`sweep_view` (transposition is an involution)."""
    return sweep_view(arr, mode)


def sweep_tiles(nlines: int, nf: int) -> Iterator[tuple[slice, slice]]:
    """``(lines, along)`` slices walking a sweep view in bounded tiles.

    A tile holds at most :data:`TILE` interfaces: as many whole lines as
    fit, or — when one line alone is longer than the tile — one chunk of
    one line.
    """
    if nf == 0:
        return
    if nf <= TILE:
        step = TILE // nf
        for i0 in range(0, nlines, step):
            yield slice(i0, min(i0 + step, nlines)), slice(0, nf)
    else:
        for ell in range(nlines):
            for j0 in range(0, nf, TILE):
                yield slice(ell, ell + 1), slice(j0, min(j0 + TILE, nf))


class TileWorkspace:
    """Scratch rows one kernel instance reuses for every tile it computes.

    ``nfloat`` float64 rows (:attr:`floats`), ``nbool`` mask rows
    (:attr:`bools`) and ``nint`` index rows (:attr:`ints`).  Nothing is
    allocated until the first :meth:`reserve`; the rows then grow to
    ``min(n, TILE)`` columns for the largest sweep of ``n`` interfaces
    seen and never beyond, so the footprint depends neither on Q nor on
    how many patch shapes went by.  Rows hold stale values between tiles:
    a kernel writes every row it reads.
    """

    def __init__(self, nfloat: int, nbool: int = 0, nint: int = 0) -> None:
        self._rows = (nfloat, nbool, nint)
        self._allocate(0)

    def _allocate(self, width: int) -> None:
        nfloat, nbool, nint = self._rows
        self.floats = np.empty((nfloat, width), dtype=np.float64)
        self.bools = np.empty((nbool, width), dtype=np.bool_)
        self.ints = np.empty((nint, width), dtype=np.int64)

    def reserve(self, n: int) -> None:
        """Make room for the tiles of a sweep of ``n`` interfaces."""
        width = min(n, TILE)
        if width > self.floats.shape[1]:
            self._allocate(width)

    @property
    def nbytes(self) -> int:
        return self.floats.nbytes + self.bools.nbytes + self.ints.nbytes


#: float rows of its workspace a :func:`flux_tiles` walk keeps for itself
IO_ROWS = 12


def flux_tiles(
    WL: np.ndarray, WR: np.ndarray, F: np.ndarray, mode: str, ws: TileWorkspace,
) -> Iterator[tuple[tuple[slice, slice], np.ndarray, np.ndarray, np.ndarray]]:
    """Walk one flux sweep tile by tile: yields ``(at, wl, wr, f)``.

    ``wl``/``wr`` are the tile's left/right states and ``f`` the array the
    caller writes the tile's flux into, all flat ``(4, m)``; ``at`` indexes
    the tile in a :func:`sweep_view` (lines, then along the sweep).  ``ws``
    is reserved for the sweep first; its float rows from :data:`IO_ROWS`
    on are the caller's.  Mode "x" tiles are views of ``WL``/``WR``/``F``.
    Mode "y" tiles live in the first :data:`IO_ROWS` float rows: the
    states are gathered through the transposed view before the yield and
    the flux is scattered through it after, which is where the strided
    access happens.
    """
    VL, VR, VF = sweep_view(WL, mode), sweep_view(WR, mode), sweep_view(F, mode)
    ws.reserve(VL.shape[1] * VL.shape[2])
    for lines, along in sweep_tiles(VL.shape[1], VL.shape[2]):
        tl, tr, tf = VL[:, lines, along], VR[:, lines, along], VF[:, lines, along]
        m = tl.shape[1] * tl.shape[2]
        if mode == "x":
            f = tf.reshape(4, m)
            # A reshape that had to copy would swallow the kernel's writes.
            assert np.shares_memory(f, F)
            yield (lines, along), tl.reshape(4, m), tr.reshape(4, m), f
        else:
            wl, wr, f = ws.floats[:IO_ROWS, :m].reshape(3, 4, m)
            np.copyto(wl.reshape(tl.shape), tl)
            np.copyto(wr.reshape(tr.shape), tr)
            yield (lines, along), wl, wr, f
            tf[...] = f.reshape(tf.shape)


def sweep_layout(shape: tuple[int, int], nghost: int, mode: str) -> tuple[int, int]:
    """``(nlines, nf)`` for a ghosted patch array of ``shape``.

    Only interior lines are swept; each line of n cells yields
    ``n - 2*nghost + 1`` interfaces (every interior face including the two
    boundary faces).
    """
    check_mode(mode)
    ni, nj = shape
    if mode == "x":
        nlines, nf = ni - 2 * nghost, interface_count(nj, nghost)
    else:
        nlines, nf = nj - 2 * nghost, interface_count(ni, nghost)
    if nlines < 1:
        raise ValueError(f"patch shape {shape} too small for nghost={nghost}")
    return nlines, nf


def get_line(stack: np.ndarray, mode: str, nghost: int, ell: int) -> np.ndarray:
    """Interior line ``ell`` of a ghosted ``(K, Ni, Nj)`` stack.

    Mode "x" returns a contiguous row slice; mode "y" a strided column
    slice — this is where the dual-mode memory behaviour lives.
    """
    return stack[:, nghost + ell, :] if mode == "x" else stack[:, :, nghost + ell]


def out_array(nvars: int, mode: str, nlines: int, nf: int) -> np.ndarray:
    """C-ordered interface array in *patch orientation*.

    Mode "x": ``(nvars, nlines, nf)`` — interfaces along the contiguous
    axis.  Mode "y": ``(nvars, nf, nlines)`` — interfaces along the strided
    axis, so writes (and the flux component's subsequent reads) are strided.
    """
    shape = (nvars, nlines, nf) if mode == "x" else (nvars, nf, nlines)
    return np.empty(shape, dtype=np.float64, order="C")


def out_line(arr: np.ndarray, mode: str, ell: int) -> np.ndarray:
    """Line ``ell`` of an interface array built by :func:`out_array`."""
    return arr[:, ell, :] if mode == "x" else arr[:, :, ell]


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod slope limiter (TVD)."""
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def interface_count(n_line: int, nghost: int) -> int:
    """Number of sweep interfaces produced for a line of ``n_line`` cells.

    Interfaces k+1/2 for k = g-1 .. n-g-1 — every face of the interior
    including its two boundary faces.  Requires g >= 2 for the limited
    reconstruction stencil.
    """
    if nghost < 2:
        raise ValueError(f"line-sweep kernels need nghost >= 2, got {nghost}")
    nf = n_line - 2 * nghost + 1
    if nf < 1:
        raise ValueError(f"line of {n_line} cells too short for nghost={nghost}")
    return nf


def reconstruct_line(w: np.ndarray, nghost: int) -> tuple[np.ndarray, np.ndarray]:
    """MUSCL (minmod-limited) left/right states at a line's interfaces.

    ``w`` holds primitive values along a line on its *last* axis (including
    ghosts); leading axes (e.g. a variable stack) broadcast through.
    Returns ``(wl, wr)`` with :func:`interface_count` entries on that axis.
    """
    g = nghost
    n = w.shape[-1]
    nf = interface_count(n, g)
    slope = np.zeros_like(w)
    slope[..., 1:-1] = minmod(w[..., 1:-1] - w[..., :-2], w[..., 2:] - w[..., 1:-1])
    wl = w[..., g - 1 : g - 1 + nf] + 0.5 * slope[..., g - 1 : g - 1 + nf]
    wr = w[..., g : g + nf] - 0.5 * slope[..., g : g + nf]
    return wl, wr
