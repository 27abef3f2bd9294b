"""Inter-level transfer operators.

"The more accurate solution from the finest meshes is periodically
interpolated onto the coarser ones" (restriction), and new fine patches are
seeded from coarse data (prolongation).  Both are conservative for
cell-averaged quantities with the refinement factor ``r``:

* :func:`prolong` — piecewise-constant injection coarse -> fine (each
  coarse cell's value fills its r x r children);
* :func:`restrict` — arithmetic mean of the r x r children -> coarse cell.

``restrict(prolong(A)) == A`` exactly, a property test anchors this.

Both act on the last two axes, so a patch's ``(nfields, ni, nj)`` block
goes through in one call; each field's cells are combined in the same
order as in a 2-D call, so the result is bitwise the per-field one.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive


def prolong(coarse: np.ndarray, r: int) -> np.ndarray:
    """Piecewise-constant prolongation of cell arrays by factor ``r``."""
    check_positive("r", r)
    c = np.asarray(coarse)
    if c.ndim < 2:
        raise ValueError(f"expected (..., ni, nj) array, got shape {c.shape}")
    return np.repeat(np.repeat(c, r, axis=-2), r, axis=-1)


def restrict(fine: np.ndarray, r: int) -> np.ndarray:
    """Conservative (mean) restriction of cell arrays by factor ``r``.

    The last two dimensions of ``fine`` must be divisible by ``r``.
    """
    check_positive("r", r)
    f = np.asarray(fine, dtype=float)
    if f.ndim < 2:
        raise ValueError(f"expected (..., ni, nj) array, got shape {f.shape}")
    *lead, ni, nj = f.shape
    if ni % r or nj % r:
        raise ValueError(f"shape {f.shape} not divisible by refinement factor {r}")
    return f.reshape(*lead, ni // r, r, nj // r, r).mean(axis=(-3, -1))
