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
the dual-mode figures (4-5, 7-8) is performed by the tile copies.  Where
at least half a large tile's interfaces repeat the one before them bit
for bit, the walk hands the kernel one interface per run and spreads the
flux back, so a sweep costs what its distinct Riemann problems cost.
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

    def reserve(self, n: int) -> bool:
        """Make room for the tiles of a sweep of ``n`` interfaces.

        True when the rows were (re)allocated, their old values gone.
        """
        width = min(n, TILE)
        if width > self.floats.shape[1]:
            self._allocate(width)
            return True
        return False

    @property
    def nbytes(self) -> int:
        return self.floats.nbytes + self.bools.nbytes + self.ints.nbytes


#: float rows of its workspace a :func:`flux_tiles` walk keeps for itself:
#: three blocks of 4 for states and fluxes, then three index rows (int64
#: words) - the run of each interface, one member of each run, and 0, 1, 2...
IO_ROWS = 15

#: a tile of fewer interfaces is handed over whole, repeats or not.
#: Finding and spreading a tile's runs takes about 25 numpy calls, ~30 us
#: of interpreter time; below this size that is more than a Godunov tile
#: saves when half its interfaces repeat, or an EFM tile when nearly all do
#: (DESIGN.md section 7 has the measured crossover).
RUN_MIN = 2048


def flux_tiles(
    WL: np.ndarray, WR: np.ndarray, F: np.ndarray, mode: str, ws: TileWorkspace,
) -> Iterator[tuple[tuple[slice, slice], np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray | None]]:
    """Walk one flux sweep tile by tile: yields ``(at, wl, wr, f, runs)``.

    ``wl``/``wr`` are the left/right states of the Riemann problems the
    caller solves and ``f`` the array it writes their flux into, all flat
    ``(4, k)``; ``at`` indexes the tile in a :func:`sweep_view` (lines,
    then along the sweep).  ``ws`` is reserved for the sweep first; its
    float rows from :data:`IO_ROWS` on and its mask and index rows are
    the caller's.

    An interface whose eight state words are bit for bit those of the one
    before it (in the tile's flat order, across lines) repeats its Riemann
    problem.  A tile of fewer than :data:`RUN_MIN` interfaces, or where
    fewer than half repeat, is handed over whole and ``runs`` is None:
    mode "x" tiles as views of ``WL``/``WR``/``F``, mode "y" tiles
    gathered into workspace rows through the transposed view, their flux
    scattered back through it afterwards - where the strided access
    happens.  Otherwise the caller
    gets one interface of each run (``k`` of the tile's ``m``) in
    workspace rows, and ``runs`` maps each of the ``m`` interfaces to its
    run's column; the walk spreads the heads' flux back over the runs
    with ``take``.  The kernels are elementwise, so equal inputs give
    equal bits and the spread flux is the flux of the whole tile.
    """
    VL, VR, VF = sweep_view(WL, mode), sweep_view(WR, mode), sweep_view(F, mode)
    nlines, nf = VL.shape[1:]
    if ws.reserve(nlines * nf):
        _index_rows(ws)[2] = np.arange(ws.floats.shape[1])
    a, b, c = ws.floats[0:4], ws.floats[4:8], ws.floats[8:12]
    # Where a tile's heads go.  A mode "y" tile's states fill a and b and
    # its flux is spread into c, so its heads rotate: the left states into
    # c, the right into a (free once the left heads are out), the flux b.
    heads = (a, b, c) if mode == "x" else (c, a, b)
    for lines, along in sweep_tiles(nlines, nf):
        tl, tr, tf = VL[:, lines, along], VR[:, lines, along], VF[:, lines, along]
        m = tl.shape[1] * tl.shape[2]
        if mode == "x":
            wl, wr, f = tl.reshape(4, m), tr.reshape(4, m), tf.reshape(4, m)
            # A reshape that had to copy would swallow the kernel's writes.
            assert np.shares_memory(f, F)
        else:
            wl, wr, f = ws.floats[:12, :m].reshape(3, 4, m)
            np.copyto(wl.reshape(tl.shape), tl)
            np.copyto(wr.reshape(tr.shape), tr)
        k = _find_runs(wl, wr, ws) if m >= RUN_MIN else m
        if 2 * k > m:
            yield (lines, along), wl, wr, f, None
        else:
            index = _index_rows(ws)
            runs, first = index[0, :m], index[1, :k]
            # any member of a run stands for it: the last one writes last
            first[runs] = index[2, :m]
            # take copies a source that is not contiguous, so the heads are
            # gathered from whole blocks: a mode "x" tile's from the sweep,
            # at the tile's offset, a mode "y" tile's from its 4 rows
            if mode == "x":
                src_l, src_r = WL.reshape(4, -1), WR.reshape(4, -1)
                first += lines.start * nf + along.start
            else:
                src_l, src_r = a, b
            hl, hr, hf = (_block(h, k) for h in heads)
            np.take(src_l, first, axis=1, out=hl, mode="clip")
            np.take(src_r, first, axis=1, out=hr, mode="clip")
            yield (lines, along), hl, hr, hf, runs
            for i in range(4):
                np.take(hf[i], runs, out=f[i], mode="clip")
        if mode == "y":
            tf[...] = f.reshape(tf.shape)


def _block(rows: np.ndarray, k: int) -> np.ndarray:
    """The first ``4 * k`` words of 4 workspace rows as a contiguous ``(4, k)``."""
    return rows.reshape(-1)[: 4 * k].reshape(4, k)


def _index_rows(ws: TileWorkspace) -> np.ndarray:
    """The walk's three index rows as ``(3, width)`` int64 words."""
    return ws.floats[IO_ROWS - 3 : IO_ROWS].view(np.int64)


def _find_runs(wl: np.ndarray, wr: np.ndarray, ws: TileWorkspace) -> int:
    """The number ``k`` of runs of repeated interfaces in a ``(4, m)`` tile.

    Interface ``i`` repeats when its eight words equal those of ``i - 1``
    as int64 bit patterns: ``==`` would merge ``+0.0`` with ``-0.0``, or
    keep two equal NaNs apart.  When at least half the interfaces repeat
    (``2 * k <= m``) the run index, ``runs[i]`` = the number of runs
    started before or at ``i``, minus one, is left in the walk's first
    index row; otherwise ``k`` may be any count above ``m / 2``: word 0 is
    compared alone first, so noisy states cost one comparison.  The masks
    are bytes of the walk's third block, which the heads overwrite later.
    """
    m = wl.shape[1]
    masks = ws.floats[8:12].view(np.bool_).reshape(32, -1)
    eq, same = masks[0:8, 1:m], masks[8, 1:m]
    l64, r64 = wl.view(np.int64), wr.view(np.int64)
    np.equal(l64[0, 1:], l64[0, :-1], out=same)
    if 2 * np.count_nonzero(same) < m:
        return m
    np.equal(l64[:, 1:], l64[:, :-1], out=eq[0:4])
    np.equal(r64[:, 1:], r64[:, :-1], out=eq[4:8])
    np.logical_and.reduce(eq, axis=0, out=same)
    k = m - int(np.count_nonzero(same))
    if 2 * k > m:
        return k
    starts = masks[8, :m]
    starts[0] = False
    np.logical_not(starts, out=starts)
    runs = _index_rows(ws)[0, :m]
    np.copyto(runs, starts)
    np.cumsum(runs, out=runs)
    runs -= 1
    return k


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
    shape = w.shape[:-1] + (interface_count(w.shape[-1], nghost),)
    wl, wr = np.empty(shape), np.empty(shape)
    reconstruct_into(w, nghost, wl, wr)
    return wl, wr


def reconstruct_into(w: np.ndarray, nghost: int, wl: np.ndarray,
                     wr: np.ndarray) -> None:
    """:func:`reconstruct_line` into ``wl``/``wr`` (views, strided or not).

    One difference ``d`` along the line; the minmod slope of the cell
    between ``a = d[j-1]`` and ``b = d[j]`` is ``max(min(a, b), 0) +
    min(max(a, b), 0)``: the smaller magnitude when the signs agree, else
    zero.  For finite data that is bit for bit ``sign(a) * min(|a|, |b|)``
    where ``a * b > 0`` and ``+0.0`` elsewhere - a ``-0.0`` sum needs both
    differences ``-0.0``, which two neighbouring differences cannot be -
    except where ``a * b`` underflows to 0 (both below ~1e-162), which the
    product test took for a sign change and this form does not.  A NaN
    difference gives a NaN slope, so a broken cell poisons its
    neighbours' states too instead of being limited to a flat one.
    """
    g = nghost
    n = w.shape[-1]
    nf = interface_count(n, g)
    # the slopes of cells g-1 .. n-g, from the differences around them
    d = np.diff(w[..., g - 2 : n - g + 2])
    a, b = d[..., :-1], d[..., 1:]
    half = np.minimum(a, b)
    np.maximum(half, 0.0, out=half)
    t = np.maximum(a, b)
    np.minimum(t, 0.0, out=t)
    half += t
    half *= 0.5
    np.add(w[..., g - 1 : g - 1 + nf], half[..., :-1], out=wl)
    np.subtract(w[..., g : g + nf], half[..., 1:], out=wr)
