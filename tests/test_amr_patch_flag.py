"""Patch storage and gradient flagging."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.flagging import buffer_flags, flag_gradient
from repro.amr.patch import Patch


class TestPatch:
    def test_allocation_shapes(self):
        p = Patch(box=Box(0, 0, 7, 3), level=0, nghost=2)
        arr = p.allocate(["rho"], fill=1.5)
        assert arr.shape == (1, 12, 8)
        assert p.array_shape == (12, 8)
        assert p.ncells == 32
        assert np.all(arr == 1.5)

    def test_interior_view_writes_through(self):
        p = Patch(box=Box(0, 0, 3, 3), level=0, nghost=2)
        p.allocate(["f"])
        p.interior("f")[...] = 7.0
        full = p.data("f")
        assert np.all(full[2:-2, 2:-2] == 7.0)
        assert np.all(full[:2, :] == 0.0)

    def test_zero_ghost(self):
        p = Patch(box=Box(0, 0, 3, 3), level=0, nghost=0)
        p.allocate(["f"])
        assert p.interior("f").shape == (4, 4)

    def test_view_by_region(self):
        p = Patch(box=Box(4, 4, 7, 7), level=1, nghost=1)
        p.allocate(["f"])
        region = Box(5, 5, 6, 6)
        p.view("f", region)[...] = 3.0
        assert p.data("f")[2:4, 2:4].sum() == 12.0

    def test_view_outside_ghost_box_rejected(self):
        p = Patch(box=Box(0, 0, 3, 3), level=0, nghost=1)
        p.allocate(["f"])
        with pytest.raises(ValueError):
            p.view("f", Box(-3, 0, 0, 0))

    def test_unknown_field(self):
        p = Patch(box=Box(0, 0, 1, 1), level=0)
        with pytest.raises(KeyError, match="no field"):
            p.data("ghost_field")

    def test_copy_is_deep(self):
        p = Patch(box=Box(0, 0, 1, 1), level=0, nghost=0)
        p.allocate(["f"], fill=1.0)
        q = p.copy()
        q.data("f")[...] = 9.0
        assert p.data("f")[0, 0] == 1.0
        assert q.uid == p.uid

    def test_uids_unique(self):
        a = Patch(box=Box(0, 0, 1, 1), level=0)
        b = Patch(box=Box(0, 0, 1, 1), level=0)
        assert a.uid != b.uid

    def test_validation(self):
        with pytest.raises(ValueError):
            Patch(box=Box(0, 0, 1, 1), level=-1)


class TestFlagging:
    def test_uniform_field_unflagged(self):
        flags = flag_gradient(np.ones((16, 16)))
        assert not flags.any()

    def test_step_flagged_at_jump(self):
        f = np.ones((16, 16))
        f[:, 8:] = 4.0
        flags = flag_gradient(f, threshold=0.1)
        assert flags[:, 7:9].all()
        assert not flags[:, :4].any()
        assert not flags[:, 12:].any()

    def test_threshold_controls_sensitivity(self):
        rng = np.random.default_rng(0)
        f = np.cumsum(rng.random((16, 16)), axis=1)
        loose = flag_gradient(f, threshold=0.001).sum()
        strict = flag_gradient(f, threshold=0.5).sum()
        assert loose >= strict

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            flag_gradient(np.ones(5))
        with pytest.raises(ValueError):
            flag_gradient(np.ones((4, 4)), threshold=0.0)

    def test_buffer_dilates(self):
        flags = np.zeros((9, 9), dtype=bool)
        flags[4, 4] = True
        out = buffer_flags(flags, width=2)
        assert out[2, 4] and out[4, 2] and out[6, 4]
        assert out.sum() > flags.sum()
        assert np.array_equal(buffer_flags(flags, width=0), flags)

    def test_buffer_validates(self):
        with pytest.raises(ValueError):
            buffer_flags(np.zeros((2, 2), dtype=bool), width=-1)
