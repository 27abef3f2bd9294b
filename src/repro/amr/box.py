"""Axis-aligned integer index boxes (2-D).

A :class:`Box` describes a rectangular region of cell-centered indices
``[ilo..ihi] x [jlo..jhi]`` (inclusive bounds, the SAMR convention).  Boxes
are the geometry language of patches, clustering and ghost exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True, order=True)
class Box:
    """Inclusive integer rectangle: ``lo=(ilo, jlo)``, ``hi=(ihi, jhi)``.

    Patch arrays are indexed ``[i, j]``: i is the row index (array axis 0,
    the y direction) and j the column index (array axis 1, the contiguous
    x direction); see :meth:`GridHierarchy.dx` for the physical mapping.
    """

    ilo: int
    jlo: int
    ihi: int
    jhi: int

    def __post_init__(self) -> None:
        if self.ihi < self.ilo or self.jhi < self.jlo:
            raise ValueError(f"empty or inverted box: {self}")

    # ------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, int]:
        return (self.ihi - self.ilo + 1, self.jhi - self.jlo + 1)

    @property
    def ncells(self) -> int:
        ni, nj = self.shape
        return ni * nj

    @property
    def lo(self) -> tuple[int, int]:
        return (self.ilo, self.jlo)

    @property
    def hi(self) -> tuple[int, int]:
        return (self.ihi, self.jhi)

    def contains(self, i: int, j: int) -> bool:
        return self.ilo <= i <= self.ihi and self.jlo <= j <= self.jhi

    def contains_box(self, other: "Box") -> bool:
        return (
            self.ilo <= other.ilo
            and self.jlo <= other.jlo
            and other.ihi <= self.ihi
            and other.jhi <= self.jhi
        )

    # -------------------------------------------------------- operations
    def intersection(self, other: "Box") -> "Box | None":
        """Overlap box, or None when disjoint."""
        ilo, jlo = max(self.ilo, other.ilo), max(self.jlo, other.jlo)
        ihi, jhi = min(self.ihi, other.ihi), min(self.jhi, other.jhi)
        if ihi < ilo or jhi < jlo:
            return None
        return Box(ilo, jlo, ihi, jhi)

    def grow(self, n: int) -> "Box":
        """Expand by ``n`` cells on every side (n may be negative to shrink)."""
        try:
            return Box(self.ilo - n, self.jlo - n, self.ihi + n, self.jhi + n)
        except ValueError:
            raise ValueError(f"grow({n}) empties box {self}") from None

    def shift(self, di: int, dj: int) -> "Box":
        return Box(self.ilo + di, self.jlo + dj, self.ihi + di, self.jhi + dj)

    def refine(self, r: int) -> "Box":
        """Index box of this region on a mesh ``r`` times finer."""
        if r < 1:
            raise ValueError(f"refinement factor must be >= 1, got {r}")
        return Box(self.ilo * r, self.jlo * r, (self.ihi + 1) * r - 1, (self.jhi + 1) * r - 1)

    def coarsen(self, r: int) -> "Box":
        """Index box of the coarse cells covering this region (floor/ceil)."""
        if r < 1:
            raise ValueError(f"refinement factor must be >= 1, got {r}")
        return Box(self.ilo // r, self.jlo // r, self.ihi // r, self.jhi // r)

    def slices(self, origin: "Box") -> tuple[slice, slice]:
        """NumPy slices of this box inside an array laid out over ``origin``."""
        if not origin.contains_box(self):
            raise ValueError(f"{self} is not contained in layout box {origin}")
        return (
            slice(self.ilo - origin.ilo, self.ihi - origin.ilo + 1),
            slice(self.jlo - origin.jlo, self.jhi - origin.jlo + 1),
        )

    def __str__(self) -> str:
        return f"[{self.ilo}:{self.ihi},{self.jlo}:{self.jhi}]"


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """``(n, 4)`` int64 array of ``(ilo, jlo, ihi, jhi)`` rows."""
    return np.array([(b.ilo, b.jlo, b.ihi, b.jhi) for b in boxes],
                    dtype=np.int64).reshape(-1, 4)


def pairwise_overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-empty ``a[i] & b[j]`` of two ``(n, 4)`` box arrays.

    Returns ``(ia, ib, overlap)``: index arrays into ``a`` and ``b`` and
    the ``(k, 4)`` overlap boxes, in the order of the nested loop
    ``for i in a: for j in b`` — the order transfer plans (and so message
    tags) are numbered in.
    """
    lo = np.maximum(a[:, None, :2], b[None, :, :2])
    hi = np.minimum(a[:, None, 2:], b[None, :, 2:])
    ia, ib = np.nonzero((lo <= hi).all(axis=2))
    return ia, ib, np.hstack([lo[ia, ib], hi[ia, ib]])
