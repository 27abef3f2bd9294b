"""Line-sweep machinery and the States component."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.eos import conserved_from_primitive
from repro.euler.kernels import (check_mode, get_line, interface_count,
                                 out_array, out_line, reconstruct_line,
                                 sweep_layout)
from repro.euler.states import StatesComponent, StatesKernel
from repro.tau.hardware import HardwareCounters, PAPI_FP_OPS, PAPI_L2_DCM


def uniform_stack(ni=12, nj=16, rho=1.0, u=0.5, v=-0.25, p=2.0):
    W = np.empty((4, ni, nj))
    W[0], W[1], W[2], W[3] = rho, u, v, p
    return conserved_from_primitive(W)


class TestKernelHelpers:
    def test_check_mode(self):
        assert check_mode("x") == "x"
        with pytest.raises(ValueError):
            check_mode("z")

    def test_interface_count(self):
        assert interface_count(16, 2) == 13
        with pytest.raises(ValueError):
            interface_count(16, 1)
        with pytest.raises(ValueError):
            interface_count(3, 2)

    def test_sweep_layout(self):
        assert sweep_layout((12, 16), 2, "x") == (8, 13)
        assert sweep_layout((12, 16), 2, "y") == (12, 9)

    def test_get_line_strides(self):
        stack = uniform_stack()
        lx = get_line(stack, "x", 2, 0)
        ly = get_line(stack, "y", 2, 0)
        assert lx.shape == (4, 16) and lx[0].flags.c_contiguous
        assert ly.shape == (4, 12) and not ly[0].flags.c_contiguous

    def test_out_array_orientation(self):
        a = out_array(4, "x", 8, 13)
        b = out_array(4, "y", 12, 9)
        assert a.shape == (4, 8, 13)
        assert b.shape == (4, 9, 12)
        assert out_line(a, "x", 2).shape == (4, 13)
        assert out_line(b, "y", 2).shape == (4, 9)

    def test_minmod_properties(self):
        def slope(a, b):
            """The limited slope of the cell between differences a and b."""
            w = np.array([0.0, a, a + b, a + b, a + b])
            wl, _ = reconstruct_line(w, 2)
            return 2.0 * (wl[0] - a)

        assert slope(2.0, 3.0) == 2.0
        assert slope(-2.0, -1.0) == -1.0
        assert slope(2.0, -3.0) == 0.0
        assert slope(0.0, 5.0) == 0.0

    def test_reconstruct_constant_line(self):
        w = np.full(16, 3.5)
        wl, wr = reconstruct_line(w, 2)
        assert np.all(wl == 3.5) and np.all(wr == 3.5)
        assert wl.shape == (13,)

    def test_reconstruct_linear_line_exact(self):
        """Limited linear reconstruction is exact on linear data."""
        w = np.arange(16.0)
        wl, wr = reconstruct_line(w, 2)
        assert np.allclose(wl, wr)  # interface values agree from both sides
        assert np.allclose(wl, np.arange(1.5, 14.0))

    def test_reconstruct_stacked(self):
        w = np.stack([np.arange(16.0), np.full(16, 2.0)])
        wl, wr = reconstruct_line(w, 2)
        assert wl.shape == (2, 13)
        assert np.all(wl[1] == 2.0)


def _where_reconstruct(w, g):
    """The reconstruction as it was written before the shared difference:
    a zeroed slope array and the ``where`` form of the limiter."""
    a, b = w[..., 1:-1] - w[..., :-2], w[..., 2:] - w[..., 1:-1]
    slope = np.zeros_like(w)
    slope[..., 1:-1] = np.where(
        a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
    nf = interface_count(w.shape[-1], g)
    return (w[..., g - 1 : g - 1 + nf] + 0.5 * slope[..., g - 1 : g - 1 + nf],
            w[..., g : g + nf] - 0.5 * slope[..., g : g + nf])


#: finite values whose neighbouring differences cannot multiply to an
#: underflow (see test_a_product_that_underflows_keeps_its_slope), with
#: signed zeros and repeats drawn often
LIMITER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300]),
    st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
)


class TestSharedDifferenceLimiter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(LIMITER_VALUES, min_size=5, max_size=40),
           g=st.integers(2, 3))
    def test_bitwise_equal_to_the_where_form_on_finite_data(self, values, g):
        w = np.asarray(values)
        if w.size < 2 * g + 1:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            wl, wr = reconstruct_line(w, g)
            ref_l, ref_r = _where_reconstruct(w, g)
        assert wl.tobytes() == ref_l.tobytes()
        assert wr.tobytes() == ref_r.tobytes()

    def test_signed_zero_differences_give_a_positive_zero_slope(self):
        # -0.0 - +0.0 = -0.0 on the left, +0.0 - -0.0 = +0.0 on the right
        w = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
        wl, wr = reconstruct_line(w, 2)
        ref_l, ref_r = _where_reconstruct(w, 2)
        assert wl.tobytes() == ref_l.tobytes()
        assert wr.tobytes() == ref_r.tobytes()

    def test_a_product_that_underflows_keeps_its_slope(self):
        """The one finite difference: ``a * b`` of two tiny differences of
        one sign rounds to 0, so the ``where`` form flattened the cell."""
        w = np.array([0.0, 1e-170, 2e-170, 3e-170, 4e-170])
        wl, _ = reconstruct_line(w, 2)
        ref_l, _ = _where_reconstruct(w, 2)
        assert ref_l[0] == w[1]
        assert wl[0] == w[1] + 0.5e-170

    def test_a_nan_cell_poisons_its_neighbours_states(self):
        """min/max propagate NaN: the where form limited a NaN neighbour
        to a flat slope, which hid a broken cell one interface away."""
        U = uniform_stack()
        U[0, 6, 8] = np.nan
        for batch in (True, False):
            WL, WR = StatesKernel(batch=batch).compute(U, "x")
            # line 4 (row 6); interface k lies between cells k+1 and k+2
            bad_l = np.isnan(WL).any(axis=0)
            bad_r = np.isnan(WR).any(axis=0)
            assert np.isnan(WL[:, 4, 6:9]).all() and np.isnan(WR[:, 4, 5:8]).all()
            assert bad_l.sum() == 3 and bad_r.sum() == 3


class TestStatesKernel:
    def test_uniform_state_yields_uniform_interfaces(self):
        kern = StatesKernel()
        U = uniform_stack()
        for mode in ("x", "y"):
            WL, WR = kern.compute(U, mode)
            assert np.allclose(WL, WR)
            assert np.allclose(WL[0], 1.0)
            assert np.allclose(WL[3], 2.0)

    def test_output_shapes(self):
        kern = StatesKernel()
        U = uniform_stack(12, 16)
        WLx, _ = kern.compute(U, "x")
        WLy, _ = kern.compute(U, "y")
        assert WLx.shape == (4, 8, 13)
        assert WLy.shape == (4, 9, 12)

    def test_normal_velocity_swaps_by_mode(self):
        kern = StatesKernel()
        U = uniform_stack(u=0.7, v=-0.3)
        WLx, _ = kern.compute(U, "x")
        WLy, _ = kern.compute(U, "y")
        assert np.allclose(WLx[1], 0.7) and np.allclose(WLx[2], -0.3)
        assert np.allclose(WLy[1], -0.3) and np.allclose(WLy[2], 0.7)

    def test_mode_symmetry_on_transposed_data(self):
        """y-sweep of U^T must equal x-sweep of U (same physics)."""
        rng = np.random.default_rng(0)
        W = np.empty((4, 12, 12))
        W[0] = 1.0 + 0.1 * rng.random((12, 12))
        W[1] = 0.2 * rng.random((12, 12))
        W[2] = 0.1 * rng.random((12, 12))
        W[3] = 1.0 + 0.1 * rng.random((12, 12))
        U = conserved_from_primitive(W)
        # Transpose space and swap velocity components.
        Ut = np.stack([U[0].T, U[2].T, U[1].T, U[3].T])
        kern = StatesKernel()
        WLx, WRx = kern.compute(U, "x")
        WLy, WRy = kern.compute(Ut, "y")
        # mode-y output of transposed field is the transpose of mode-x output.
        for k in range(4):
            assert np.allclose(WLy[k], WLx[k].T, atol=1e-12)
            assert np.allclose(WRy[k], WRx[k].T, atol=1e-12)

    def test_counters_reported(self):
        hc = HardwareCounters()
        kern = StatesKernel(counters=hc)
        kern.compute(uniform_stack(), "y")
        assert hc.value(PAPI_FP_OPS) > 0
        assert hc.value(PAPI_L2_DCM) > 0

    def test_invalid_inputs(self):
        kern = StatesKernel()
        with pytest.raises(ValueError):
            kern.compute(np.ones((3, 8, 8)), "x")
        with pytest.raises(ValueError):
            kern.compute(uniform_stack(), "diagonal")
        with pytest.raises(ValueError):
            StatesKernel(nghost=1)

    def test_component_standalone_compute(self):
        comp = StatesComponent()
        WL, WR = comp.compute(uniform_stack(), "x")
        assert np.allclose(WL, WR)


@settings(max_examples=25, deadline=None)
@given(
    rho=st.floats(0.1, 10.0),
    u=st.floats(-3.0, 3.0),
    p=st.floats(0.1, 10.0),
    mode=st.sampled_from(["x", "y"]),
)
def test_property_positivity_preserved(rho, u, p, mode):
    """Reconstruction of positive rho/p stays positive (minmod TVD)."""
    U = uniform_stack(rho=rho, u=u, p=p)
    WL, WR = StatesKernel().compute(U, mode)
    assert (WL[0] > 0).all() and (WR[0] > 0).all()
    assert (WL[3] > 0).all() and (WR[3] > 0).all()
