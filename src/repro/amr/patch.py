"""Patches: rectangular Cartesian meshes with ghost cells.

"Patches can be of any size or aspect ratio" (paper Section 5).  A
:class:`Patch` stores its named cell-centered fields in one
``(nfields, ni, nj)`` block including a ``nghost``-wide ghost frame, so a
transfer or a kernel moves every field with one slice; ``fields[name]`` is
a 2-D view of its plane.  The interior corresponds to the patch's
:class:`~repro.amr.box.Box` in the level's global index space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.amr.box import Box
from repro.util.validation import check_non_negative

_patch_ids = itertools.count()


@dataclass
class Patch:
    """One rectangular mesh patch on one refinement level."""

    box: Box
    level: int
    owner: int = 0
    nghost: int = 2
    uid: int = field(default_factory=lambda: next(_patch_ids))
    #: field names in block order (empty until :meth:`allocate`)
    names: tuple[str, ...] = field(default=(), init=False)
    #: all field data, ``(len(names), ni, nj)``; None on non-owning ranks
    block: np.ndarray | None = field(default=None, init=False, compare=False)
    #: ``name -> block[k]`` views
    fields: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        check_non_negative("level", self.level)
        check_non_negative("nghost", self.nghost)
        check_non_negative("owner", self.owner)

    # ------------------------------------------------------------ layout
    @property
    def ghost_box(self) -> Box:
        """The index box covered by storage including ghosts."""
        return self.box.grow(self.nghost)

    @property
    def array_shape(self) -> tuple[int, int]:
        ni, nj = self.box.shape
        return (ni + 2 * self.nghost, nj + 2 * self.nghost)

    @property
    def ncells(self) -> int:
        """Interior cell count (the patch's workload measure)."""
        return self.box.ncells

    # ------------------------------------------------------------ fields
    def allocate(self, names: Sequence[str], fill: float = 0.0) -> np.ndarray:
        """Create (or reset) the field block for ``names``, returning it."""
        if isinstance(names, str):
            raise TypeError(f"allocate takes the list of field names, got {names!r}")
        block = np.full((len(names), *self.array_shape), fill, dtype=np.float64)
        self._bind(tuple(names), block)
        return block

    def _bind(self, names: tuple[str, ...], block: np.ndarray) -> None:
        self.names = names
        self.block = block
        self.fields = dict(zip(names, block))

    def whole_block(self, fields: Sequence[str]) -> np.ndarray:
        """The storage block, given that ``fields`` is all of it."""
        if self.names != tuple(fields):
            raise ValueError(
                f"transfer of fields {list(fields)} on patch {self.uid} holding "
                f"{list(self.names)}: a transfer moves the whole block")
        return self.block

    def data(self, name: str) -> np.ndarray:
        """Full storage array of a field (interior + ghosts)."""
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(
                f"patch {self.uid} (L{self.level} {self.box}) has no field "
                f"{name!r}; have {sorted(self.fields)}"
            ) from None

    def interior(self, name: str) -> np.ndarray:
        """View of the field's interior cells."""
        g = self.nghost
        arr = self.data(name)
        return arr[g : arr.shape[0] - g, g : arr.shape[1] - g] if g else arr

    def view(self, name: str, region: Box) -> np.ndarray:
        """View of the field over ``region`` (level index space).

        ``region`` must lie inside the patch's ghost box.
        """
        si, sj = region.slices(self.ghost_box)
        return self.data(name)[si, sj]

    # ------------------------------------------------------------- misc
    def field_names(self) -> list[str]:
        return sorted(self.fields)

    def copy(self) -> "Patch":
        """Deep copy (fresh uid is *not* assigned; identity is preserved)."""
        twin = Patch(box=self.box, level=self.level, owner=self.owner,
                     nghost=self.nghost, uid=self.uid)
        if self.block is not None:
            twin._bind(self.names, self.block.copy())
        return twin

    def __repr__(self) -> str:
        return (
            f"Patch(uid={self.uid}, L{self.level}, box={self.box}, owner={self.owner}, "
            f"fields={self.field_names()})"
        )
