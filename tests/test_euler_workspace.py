"""The flux kernels' tile workspace: same bits, bounded scratch, no churn.

The batched EFM/Godunov paths walk a sweep in tiles of at most
``kernels.TILE`` interfaces and evaluate each with ``out=`` arithmetic on
rows the kernel instance owns.  The per-line ``batch=False`` loops over
the allocating helpers are the independent oracle: every comparison here
is on ``tobytes()``.  The cost gates count allocations and page faults;
nothing here reads a clock.
"""

import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cca import Framework
from repro.euler import (AMRMeshComponent, DriverParams, GodunovFluxComponent,
                         InviscidFluxComponent, RK2Component, StatesComponent)
from repro.euler import kernels
from repro.euler.efm import EFMKernel
from repro.euler.eos import P_FLOOR, RHO_FLOOR
from repro.euler.godunov import MAX_ITER, GodunovKernel, solve_star_pressure
from repro.euler.kernels import (IO_ROWS, TILE, TileWorkspace, flux_tiles,
                                 sweep_tiles)
from repro.euler.setup import shock_interface_ic
from repro.euler.states import StatesKernel
from repro.harness.sweeps import q_grid, synthetic_patch_stack
from repro.util.rng import make_rng
from .test_godunov_batch import TORO_TESTS

KERNELS = {"efm": EFMKernel, "godunov": GodunovKernel}

#: data the Godunov solver must survive; EFM has no floors, so it only
#: sees the kinds whose pressure and density stay positive
GODUNOV_KINDS = ("smooth", "shock", "transonic", "vacuum", "floor")
EFM_KINDS = ("smooth", "shock", "transonic")


@contextmanager
def tile_size(n):
    """Run with another ``kernels.TILE`` (kernels built inside see it)."""
    old = kernels.TILE
    kernels.TILE = n
    try:
        yield
    finally:
        kernels.TILE = old


def sweep_states(nlines, nf, kind="smooth", seed=0):
    """``(WL, WR)`` in sweep orientation ``(4, nlines, nf)``."""
    rng = make_rng(seed)
    shape = (nlines, nf)

    def stack(rho, un, p):
        return np.stack([rho, un, 0.3 * rng.standard_normal(shape), p])

    rho_l, rho_r = 1.0 + 0.3 * rng.random(shape), 1.0 + 0.3 * rng.random(shape)
    p_l, p_r = 1.0 + 0.3 * rng.random(shape), 1.0 + 0.3 * rng.random(shape)
    u_l, u_r = 0.5 * rng.standard_normal(shape), 0.5 * rng.standard_normal(shape)
    if kind == "shock":
        # pressure ratios up to 1e5 either way, colliding or not
        p_l *= 10.0 ** rng.uniform(-2.5, 2.5, shape)
        p_r *= 10.0 ** rng.uniform(-2.5, 2.5, shape)
        u_l += 3.0 * rng.random(shape)
        u_r -= 3.0 * rng.random(shape)
    elif kind == "transonic":
        # |u| around the sound speed: x/t = 0 falls inside rarefaction fans
        p_r *= 10.0 ** rng.uniform(-2.0, 0.0, shape)
        u_l += rng.uniform(-2.0, 2.0, shape)
        u_r += rng.uniform(-2.0, 2.0, shape)
    elif kind == "vacuum":
        # receding states: p* falls to the floor, Newton runs long
        u_l -= 4.0 * rng.random(shape)
        u_r += 4.0 * rng.random(shape)
    elif kind == "floor":
        # densities and pressures at, below and just above the floors
        levels = np.array([0.0, -1.0, RHO_FLOOR, 3.0 * P_FLOOR, 1e-6, 1.0])
        rho_l = rng.choice(levels, shape)
        rho_r = rng.choice(levels, shape)
        p_l = rng.choice(levels, shape)
        p_r = rng.choice(levels, shape)
        u_l *= 1e-3
        u_r *= 1e-3
    elif kind != "smooth":
        raise ValueError(kind)
    return stack(rho_l, u_l, p_l), stack(rho_r, u_r, p_r)


def oriented(W, mode):
    """Sweep-oriented stack as the contiguous patch-oriented array of ``mode``."""
    return W if mode == "x" else np.ascontiguousarray(W.transpose(0, 2, 1))


def assert_tiled_equals_per_line(name, WL, WR, mode, gamma=1.4):
    """Batched and per-line results agree bit for bit."""
    tiled = KERNELS[name](gamma=gamma, batch=True)
    oracle = KERNELS[name](gamma=gamma, batch=False)
    assert (tiled.compute(WL, WR, mode).tobytes()
            == oracle.compute(WL, WR, mode).tobytes())
    if name == "godunov":
        assert (tiled.last_iter_counts.tobytes()
                == oracle.last_iter_counts.tobytes())
        assert tiled.total_iterations == oracle.total_iterations


def both_modes(name, WL, WR, gamma=1.4):
    for mode in ("x", "y"):
        assert_tiled_equals_per_line(name, oriented(WL, mode),
                                     oriented(WR, mode), mode, gamma)


# ------------------------------------------------------------- the tile walk
class TestTileWalk:
    @pytest.mark.parametrize("nlines,nf", [
        (1, 1), (1, TILE - 1), (1, TILE), (1, TILE + 1), (1, 20_000),
        (3, TILE + 5), (40, 300), (256, 257), (TILE + 3, 1), (5, TILE // 2 + 1),
    ])
    def test_tiles_partition_the_sweep_within_the_bound(self, nlines, nf):
        seen = np.zeros((nlines, nf), dtype=np.int64)
        for lines, along in sweep_tiles(nlines, nf):
            assert seen[lines, along].size <= TILE
            seen[lines, along] += 1
        assert (seen == 1).all()

    def test_long_line_is_chunked_and_short_lines_are_grouped(self):
        assert len(list(sweep_tiles(1, 20_000))) == -(-20_000 // TILE)
        assert len(list(sweep_tiles(64, 64))) == -(-64 // (TILE // 64))

    def test_mode_x_tiles_are_views_and_mode_y_tiles_are_workspace_rows(self):
        WL, WR = sweep_states(6, 50)
        with tile_size(128):
            for mode in ("x", "y"):
                wl_p, wr_p = oriented(WL, mode), oriented(WR, mode)
                F = np.empty_like(wl_p)
                ws = TileWorkspace(nfloat=IO_ROWS)
                for _at, wl, wr, f in flux_tiles(wl_p, wr_p, F, mode, ws):
                    if mode == "x":
                        assert np.shares_memory(wl, wl_p)
                        assert np.shares_memory(f, F)
                    else:
                        assert np.shares_memory(wl, ws.floats)
                        assert np.shares_memory(f, ws.floats)
                        assert not np.shares_memory(f, F)
                    np.add(wl, wr, out=f)
                assert F.tobytes() == (wl_p + wr_p).tobytes()

    def test_nothing_allocated_before_the_first_sweep(self):
        for cls in KERNELS.values():
            assert cls().workspace.nbytes == 0
        fw = Framework()
        fw.create("inviscid", InviscidFluxComponent)
        assert fw.component("inviscid")._workspace.nbytes == 0


# ----------------------------------------------------- bitwise vs the oracle
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBitwiseAgainstPerLine:
    def test_one_interior_line(self, name):
        both_modes(name, *sweep_states(1, 33, seed=1))

    @pytest.mark.parametrize("nlines,nf", [(3, 200), (200, 3), (37, 91)])
    def test_non_square_patches(self, name, nlines, nf):
        both_modes(name, *sweep_states(nlines, nf, seed=2))

    @pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1])
    def test_interface_counts_around_one_tile(self, name, n):
        # as one line, and as lines that do not divide the tile
        both_modes(name, *sweep_states(1, n, seed=3))
        nf = 7
        both_modes(name, *sweep_states(-(-n // nf), nf, seed=4))

    def test_single_long_line_and_its_transpose(self, name):
        both_modes(name, *sweep_states(1, 20_000, "shock", seed=5))

    @pytest.mark.parametrize("kind", GODUNOV_KINDS)
    def test_hostile_data(self, name, kind):
        if name == "efm" and kind not in EFM_KINDS:
            pytest.skip("EFM has no floors: non-positive states are not its input")
        both_modes(name, *sweep_states(48, 200, kind, seed=6))

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0, 3.0])
    def test_other_gammas(self, name, gamma):
        # gamma = 2 and 3 make sampling exponents 0.5, 1 and 2, which
        # ``**`` evaluates as sqrt, copy and square rather than pow
        both_modes(name, *sweep_states(20, 60, "transonic", seed=7), gamma=gamma)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(nlines=st.integers(1, 40), nf=st.integers(1, 120),
           tile=st.sampled_from([5, 64, 1000, TILE]),
           kind=st.sampled_from(EFM_KINDS), mode=st.sampled_from(["x", "y"]),
           seed=st.integers(0, 2**16))
    def test_generated_shapes(self, name, nlines, nf, tile, kind, mode, seed):
        WL, WR = sweep_states(nlines, nf, kind, seed)
        with tile_size(tile):
            assert_tiled_equals_per_line(name, oriented(WL, mode),
                                         oriented(WR, mode), mode)


class TestGodunovAcrossTileEdges:
    def test_toro_tests_straddling_a_tile_edge(self):
        """Toro's five problems on interfaces TILE-3 .. TILE+1 of one line."""
        n = TILE + 40
        WL = np.empty((4, 1, n))
        WL[0], WL[1], WL[2], WL[3] = 1.0, 0.0, 0.0, 1.0
        WR = WL.copy()
        first = TILE - 3
        for i, key in enumerate(sorted(TORO_TESTS)):
            rl, ul, pl, rr, ur, pr, _p, _u = TORO_TESTS[key]
            WL[:, 0, first + i] = (rl, ul, 0.1, pl)
            WR[:, 0, first + i] = (rr, ur, -0.1, pr)
        for mode in ("x", "y"):
            kern = GodunovKernel()
            kern.compute(oriented(WL, mode), oriented(WR, mode), mode)
            counts = kernels.sweep_view(kern.last_iter_counts, mode)[0]
            # "123" first: its two-rarefaction guess is already the answer
            assert counts[first] == 1 and (counts[first + 1 : first + 5] > 1).all()
            assert counts[: first].max() == 1 and counts[first + 5 :].max() == 1
        both_modes("godunov", WL, WR)

    def test_hostile_data_reaches_the_branches_it_is_there_for(self):
        """Long Newton runs, and x/t = 0 inside a rarefaction fan (the one
        branch the tile path evaluates only when some interface selects it)."""
        kern = GodunovKernel()
        kern.compute(*sweep_states(48, 200, "shock", seed=6), "x")
        assert 12 <= kern.last_iter_counts.max() <= MAX_ITER

        def left_fans(kind):
            WL, WR = sweep_states(48, 200, kind, seed=6)
            p_star, u_star, _ = solve_star_pressure(
                WL[0], WL[1], WL[3], WR[0], WR[1], WR[3])
            c_l = np.sqrt(1.4 * WL[3] / WL[0])
            tail = u_star - c_l * (p_star / WL[3]) ** (0.4 / 2.8)
            return int(((u_star >= 0) & (p_star <= WL[3])
                        & (WL[1] - c_l < 0) & (tail > 0)).sum())

        assert left_fans("transonic") > 1000
        assert left_fans("vacuum") > 1000


# ----------------------------------------------- reuse of one kernel's rows
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestWorkspaceReuse:
    def test_large_small_large_returns_the_first_bytes(self, name):
        kind = "shock"
        big = sweep_states(120, 131, kind, seed=8)       # two tiles
        small = sweep_states(5, 7, kind, seed=9)
        for mode in ("x", "y"):
            kern = KERNELS[name]()
            args_big = (oriented(big[0], mode), oriented(big[1], mode), mode)
            args_small = (oriented(small[0], mode), oriented(small[1], mode), mode)
            first = kern.compute(*args_big).tobytes()
            small_bytes = kern.compute(*args_small).tobytes()
            assert kern.compute(*args_big).tobytes() == first
            assert kern.compute(*args_small).tobytes() == small_bytes
            assert KERNELS[name]().compute(*args_small).tobytes() == small_bytes

    def test_two_kernels_on_two_threads_give_the_serial_bytes(self, name):
        jobs = [sweep_states(90, 100, "shock", seed=10),
                sweep_states(70, 130, "transonic", seed=11)]
        serial = [KERNELS[name]().compute(WL, WR, "y").tobytes()
                  for WL, WR in jobs]
        results = [[], []]

        def drive(i):
            kern = KERNELS[name]()
            for _ in range(4):
                results[i].append(kern.compute(*jobs[i], "y").tobytes())

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        for i in range(2):
            assert results[i] == [serial[i]] * 4


# ------------------------------------------------------------- count gates
def _x_sweep_256():
    return StatesKernel().compute(synthetic_patch_stack(256 * 256, seed=0), "x")


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_steady_state_compute_allocates_little_beyond_its_results(name):
    """A warm 256x256 sweep needs under 1 MB it does not hand back.

    The flat-batch bodies peaked at 16.0 MB (Godunov) and 9.8 MB (EFM) of
    526 kB temporaries, which is what the allocator kept trimming.
    """
    WL, WR = _x_sweep_256()
    kern = KERNELS[name]()
    kern.compute(WL, WR, "x")
    kern.compute(WL, WR, "x")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        F = kern.compute(WL, WR, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = F.nbytes
    if name == "godunov":
        kept += kern.last_iter_counts.nbytes
    assert peak - before - kept < 1_000_000


def _wired_inviscid():
    fw = Framework()
    fw.create("states", StatesComponent)
    fw.create("flux", GodunovFluxComponent)
    fw.create("inviscid", InviscidFluxComponent)
    fw.connect("inviscid", "states", "states", "states")
    fw.connect("inviscid", "flux", "flux", "flux")
    return fw.component("inviscid")


def test_steady_state_flux_divergence_takes_few_page_faults():
    """Four warm 256x256 right-hand sides: under 6 000 minor faults.

    With full-sweep temporaries glibc trimmed the heap under every call
    and the same four calls re-faulted 64 295 pages.
    """
    resource = pytest.importorskip("resource")
    inviscid = _wired_inviscid()
    U = synthetic_patch_stack(256 * 256, seed=0)
    for _ in range(2):
        inviscid.flux_divergence(U, 0.1, 0.1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(4):
        inviscid.flux_divergence(U, 0.1, 0.1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 6_000, faults


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_workspace_bounded_whatever_sizes_and_shapes_went_by(name):
    """Every Q of the paper's grid, or 40 small shapes: one footprint."""
    states = StatesKernel()
    by_q = KERNELS[name]()
    for q in q_grid():
        by_q.compute(*states.compute(synthetic_patch_stack(q, seed=1), "x"), "x")
    by_shape = KERNELS[name]()
    for i in range(40):
        WL, WR = sweep_states(60 + i, 140 + 3 * i, seed=i)
        mode = "xy"[i % 2]
        by_shape.compute(oriented(WL, mode), oriented(WR, mode), mode)
    rows = {"efm": IO_ROWS + 11, "godunov": IO_ROWS + 36}[name]
    assert by_q.workspace.nbytes == by_shape.workspace.nbytes
    assert by_q.workspace.nbytes <= (rows + 2) * 8 * TILE
    # grown on demand: a kernel that only ever saw small sweeps stays small
    tiny = KERNELS[name]()
    tiny.compute(*sweep_states(4, 9), "x")
    assert 0 < tiny.workspace.nbytes <= (rows + 2) * 8 * 36


# -------------------------------------------- flux divergence and RK2 algebra
class TestRhsAndIntegrator:
    def test_flux_divergence_matches_the_allocating_algebra(self):
        inviscid = _wired_inviscid()
        states, flux = StatesKernel(), GodunovKernel()
        for n, dx, dy in ((36 * 36, 0.1, 0.07), (150 * 150, 0.013, 0.4)):
            U = synthetic_patch_stack(n, seed=2)
            Fx = flux.compute(*states.compute(U, "x"), "x")
            Fy = flux.compute(*states.compute(U, "y"), "y")
            expect = -(Fx[:, :, 1:] - Fx[:, :, :-1]) / dx
            expect -= ((Fy[:, 1:, :] - Fy[:, :-1, :]) / dy)[[0, 2, 1, 3]]
            dU = inviscid.flux_divergence(U, dx, dy)
            assert dU.shape == expect.shape
            assert dU.tobytes() == expect.tobytes()

    def test_dU_is_the_providers_until_its_next_call(self):
        inviscid = _wired_inviscid()
        big = synthetic_patch_stack(40 * 40, seed=3)
        small = synthetic_patch_stack(12 * 12, seed=4)
        first = inviscid.flux_divergence(big, 0.1, 0.1)
        kept = first.copy()
        second = inviscid.flux_divergence(small, 0.1, 0.1)
        assert np.shares_memory(first, second)
        # ... and a caller that scribbled on it changes nothing later
        second[...] = np.nan
        assert inviscid.flux_divergence(big, 0.1, 0.1).tobytes() == kept.tobytes()
        assert inviscid.last_iter_counts["x"].shape == (40, 41)

    def test_rk2_advance_matches_the_stack_copy_algebra(self):
        params = DriverParams(nx=24, ny=20, max_levels=1, steps=1,
                              regrid_every=0, blocks=(1, 1))
        fw = Framework()
        fw.create("states", StatesComponent)
        fw.create("flux", GodunovFluxComponent)
        fw.create("inviscid", InviscidFluxComponent)
        fw.create("rk2", RK2Component)
        fw.create("mesh", AMRMeshComponent, params=params)
        fw.connect("inviscid", "states", "states", "states")
        fw.connect("inviscid", "flux", "flux", "flux")
        fw.connect("rk2", "mesh", "mesh", "mesh")
        fw.connect("rk2", "rhs", "inviscid", "rhs")
        mesh, rk2 = fw.component("mesh"), fw.component("rk2")
        inviscid = fw.component("inviscid")
        mesh.initialize(shock_interface_ic(params))
        (patch,) = mesh.local_patches(0)
        start = patch.block.copy()
        dt = rk2.compute_dt(0.4)
        rk2.advance(0, dt)
        got = patch.block.copy()

        # the historical formulation: stack copies, one field at a time
        patch.block[...] = start
        h = mesh.hierarchy()
        g = h.nghost
        dx, dy = h.dx(0)
        mesh.ghost_update(0)
        U0 = mesh.stack(patch)
        saved = U0[:, g:-g, g:-g].copy()
        dU = inviscid.flux_divergence(U0, dx, dy).copy()
        for k, f in enumerate(h.fields):
            patch.interior(f)[...] += dt * dU[k]
        mesh.ghost_update(0)
        U1 = mesh.stack(patch)
        dU = inviscid.flux_divergence(U1, dx, dy).copy()
        U_new = 0.5 * (saved + U1[:, g:-g, g:-g] + dt * dU)
        for k, f in enumerate(h.fields):
            patch.interior(f)[...] = U_new[k]
        assert got.tobytes() == patch.block.tobytes()
        assert not np.array_equal(got, start)
