"""GodunovFlux: exact-Riemann-solver fluxes.

"a component that involves an internal iterative solution for every
element of the data array" (paper Section 5).  Each distinct interface
solves the exact Riemann problem for the 1-D Euler equations (Toro's
formulation): Newton iteration on the star-region pressure with a
two-rarefaction initial guess, then sampling of the self-similar solution
at x/t = 0.

The iteration count depends on the data, which is why the paper observes
GodunovFlux's timing variability *growing* with Q (Eq. 2's
``sigma_Godunov = -526 + 0.152 Q``) while its mean is linear
(``T_Godunov = -963 + 0.315 Q``) and larger than EFMFlux's.

:func:`solve_star_pressure` uses an *active-set* Newton: each step only
updates the still-unconverged interfaces (boolean-mask gather/scatter)
and the per-interface iteration counts are returned, so the observable
behind Eq. 2 — how much iterative work each interface needed — is exact
rather than a per-line mean.  :class:`GodunovKernel` evaluates whole
sweeps in one batched call by default (``batch=True``); the historical
line-at-a-time path is kept behind ``batch=False`` for A/B comparison
(see ``benchmarks/test_microbench_flux_batch.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.services import Services
from repro.euler.eos import GAMMA_DEFAULT, P_FLOOR, RHO_FLOOR
from repro.euler.kernels import (IO_ROWS, TileWorkspace, check_mode,
                                 flux_tiles, out_line, sweep_view, unsweep)
from repro.euler.ports import FluxPort
from repro.tau.hardware import AccessPattern, HardwareCounters

FLOPS_PER_INTERFACE_PER_ITER = 40

#: Newton convergence control
MAX_ITER = 25
TOL = 1.0e-7


def _pressure_function(p: np.ndarray, rho_k: np.ndarray, p_k: np.ndarray,
                       c_k: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Toro's f_K(p) and its derivative for one side (vectorized).

    Shock branch for p > p_k, rarefaction branch otherwise.  Both branches
    are evaluated for every interface and selected with ``np.where``; the
    unused branch can hit invalid powers at floor-level states, so the
    evaluation runs under ``np.errstate`` — the selected branch is always
    finite for floored inputs.
    """
    g1 = (gamma - 1.0) / (2.0 * gamma)
    A = 2.0 / ((gamma + 1.0) * rho_k)
    B = (gamma - 1.0) / (gamma + 1.0) * p_k
    shock = p > p_k
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # Shock branch
        sq = np.sqrt(A / (p + B))
        f_s = (p - p_k) * sq
        df_s = sq * (1.0 - 0.5 * (p - p_k) / (p + B))
        # Rarefaction branch
        pr = np.maximum(p, P_FLOOR) / p_k
        f_r = 2.0 * c_k / (gamma - 1.0) * (pr**g1 - 1.0)
        df_r = 1.0 / (rho_k * c_k) * pr ** (-(gamma + 1.0) / (2.0 * gamma))
    return np.where(shock, f_s, f_r), np.where(shock, df_s, df_r)


def solve_star_pressure(
    rho_l: np.ndarray, u_l: np.ndarray, p_l: np.ndarray,
    rho_r: np.ndarray, u_r: np.ndarray, p_r: np.ndarray,
    gamma: float = GAMMA_DEFAULT,
    max_iter: int = MAX_ITER,
    tol: float = TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active-set Newton solve for (p*, u*).

    Returns ``(p_star, u_star, iter_counts)`` where ``iter_counts`` is an
    integer array (input shape) holding the number of Newton updates each
    interface received — the data-dependent work behind the paper's
    growing ``sigma_Godunov(Q)``.  Each step gathers only the interfaces
    whose relative pressure change is still above ``tol``, updates them,
    and scatters the result back; converged interfaces are frozen.
    """
    rho_l, u_l, p_l, rho_r, u_r, p_r = np.broadcast_arrays(
        rho_l, u_l, p_l, rho_r, u_r, p_r
    )
    shape = p_l.shape
    c_l = np.sqrt(gamma * p_l / rho_l)
    c_r = np.sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    # Two-rarefaction initial guess (robust and positive).  The numerator
    # goes non-positive for vacuum-generating expansions; clamp it so the
    # fractional power never sees a negative base (p* floors out instead).
    g1 = (gamma - 1.0) / (2.0 * gamma)
    num = np.maximum(c_l + c_r - 0.5 * (gamma - 1.0) * du, 0.0)
    den = c_l / np.maximum(p_l, P_FLOOR) ** g1 + c_r / np.maximum(p_r, P_FLOOR) ** g1
    p = np.maximum((num / den) ** (1.0 / g1), P_FLOOR).reshape(-1)

    rl, ul, pl = rho_l.reshape(-1), u_l.reshape(-1), p_l.reshape(-1)
    rr, ur, pr = rho_r.reshape(-1), u_r.reshape(-1), p_r.reshape(-1)
    cl, cr, duf = c_l.reshape(-1), c_r.reshape(-1), du.reshape(-1)
    iter_counts = np.zeros(p.shape, dtype=np.int64)

    active = np.arange(p.size)
    for _ in range(max_iter):
        if active.size == 0:
            break
        pa = p[active]
        f_l, df_l = _pressure_function(pa, rl[active], pl[active], cl[active], gamma)
        f_r, df_r = _pressure_function(pa, rr[active], pr[active], cr[active], gamma)
        delta = (f_l + f_r + duf[active]) / (df_l + df_r)
        p_new = np.maximum(pa - delta, P_FLOOR)
        iter_counts[active] += 1
        p[active] = p_new
        converged = 2.0 * np.abs(p_new - pa) / (p_new + pa) < tol
        active = active[~converged]

    p = p.reshape(shape)
    f_l, _ = _pressure_function(p, rho_l, p_l, c_l, gamma)
    f_r, _ = _pressure_function(p, rho_r, p_r, c_r, gamma)
    u_star = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return p, u_star, iter_counts.reshape(shape)


def sample_interface(
    rho_l, u_l, p_l, rho_r, u_r, p_r, p_star, u_star, gamma: float = GAMMA_DEFAULT
):
    """Sample the exact Riemann solution at x/t = 0 (Toro Section 4.5).

    Returns (rho, u, p) of the state on the interface, vectorized.  The
    solution is mirror-symmetric about the contact, so only the upwind
    side's wave structure is evaluated: states are reflected into the
    left-wave frame (``u -> sign*u``) and the sampled velocity reflected
    back — exactly the arithmetic of evaluating both sides, at half the
    cost.  Unused ``np.where`` branches may produce invalid intermediates
    at floor-level states, so the algebra runs under ``np.errstate``.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gp1 = gamma + 1.0
        gm1 = gamma - 1.0

        left_of_contact = u_star >= 0.0
        sign = np.where(left_of_contact, 1.0, -1.0)
        rho_k = np.where(left_of_contact, rho_l, rho_r)
        p_k = np.where(left_of_contact, p_l, p_r)
        un = np.where(left_of_contact, u_l, u_r) * sign
        us = u_star * sign
        c_k = np.sqrt(gamma * p_k / rho_k)

        shock = p_star > p_k
        ps = p_star / p_k
        # Shock branch
        s = un - c_k * np.sqrt(gp1 / (2 * gamma) * ps + gm1 / (2 * gamma))
        rho_shock = rho_k * (ps + gm1 / gp1) / (ps * gm1 / gp1 + 1.0)
        # Rarefaction branch
        rho_rare = rho_k * ps ** (1.0 / gamma)
        c_s = c_k * ps ** (gm1 / (2 * gamma))
        sh = un - c_k             # head speed
        st = us - c_s             # tail speed
        # Inside-fan state (x/t = 0)
        # Clamp: the fan factor can go (unphysically) non-positive in branches
        # np.where will not select; keep the power computable.
        fan_fac = np.maximum(2.0 / gp1 + gm1 / (gp1 * c_k) * un, 1e-12)
        rho_fan = rho_k * fan_fac ** (2.0 / gm1)
        u_fan = 2.0 / gp1 * (c_k + 0.5 * gm1 * un)
        p_fan = p_k * fan_fac ** (2.0 * gamma / gm1)

        # Region masks: ahead of the wave, inside the fan, or star region.
        pre = np.where(shock, s >= 0.0, sh >= 0.0)
        fan = ~shock & (sh < 0.0) & (st > 0.0)

        rho = np.where(pre, rho_k,
                       np.where(fan, rho_fan, np.where(shock, rho_shock, rho_rare)))
        u = np.where(pre, un, np.where(fan, u_fan, us)) * sign
        p = np.where(pre, p_k, np.where(fan, p_fan, p_star))
    return np.maximum(rho, RHO_FLOOR), u, np.maximum(p, P_FLOOR)


def _pow_into(base: np.ndarray, exponent: float, out: np.ndarray) -> None:
    """``base ** exponent`` into ``out``.

    Through the in-place operator, which keeps ``ndarray.__pow__``'s
    scalar fast paths (square, sqrt, reciprocal) that ``np.power(out=)``
    skips, so the bits match the allocating helpers for every gamma.
    """
    np.copyto(out, base)
    out **= exponent


def _where_into(mask: np.ndarray, a: np.ndarray, b: np.ndarray,
                out: np.ndarray) -> None:
    """``np.where(mask, a, b)`` into ``out`` (``np.where`` has no ``out=``)."""
    np.copyto(out, b)
    np.copyto(out, a, where=mask)


def _side_rows_into(side: np.ndarray, rho_k: np.ndarray, c_k: np.ndarray,
                    gamma: float) -> None:
    """The p-independent factors of one side's pressure function.

    ``side`` is ``(A, B, p_k, C_f, C_df)`` with ``p_k`` already filled in;
    ``f_r = C_f (pr^g1 - 1)`` and ``df_r = C_df pr^(-(g+1)/2g)``, the two
    factors evaluated under the errstate they have in
    :func:`_pressure_function`.
    """
    A, B, p_k, C_f, C_df = side
    np.multiply(rho_k, gamma + 1.0, out=A)
    np.divide(2.0, A, out=A)
    np.multiply(p_k, (gamma - 1.0) / (gamma + 1.0), out=B)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.multiply(c_k, 2.0, out=C_f)
        C_f /= gamma - 1.0
        np.multiply(rho_k, c_k, out=C_df)
        np.divide(1.0, C_df, out=C_df)


def _pressure_function_into(p: np.ndarray, side: np.ndarray, gamma: float,
                            f: np.ndarray, df: np.ndarray | None,
                            scratch: np.ndarray, shock: np.ndarray) -> None:
    """:func:`_pressure_function` into ``f`` (and ``df`` unless None).

    ``side`` holds the rows :func:`_side_rows_into` prepared.  Same
    operations in the same order on 4 ``scratch`` rows; the branch select
    is a masked copy of the shock branch over the rarefaction one.
    """
    A, B, p_k, C_f, C_df = side
    t, sq, x, pr = scratch
    np.greater(p, p_k, out=shock)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.add(p, B, out=t)
        np.divide(A, t, out=sq)
        np.sqrt(sq, out=sq)
        np.subtract(p, p_k, out=x)
        np.maximum(p, P_FLOOR, out=pr)
        pr /= p_k
        _pow_into(pr, (gamma - 1.0) / (2.0 * gamma), f)
        f -= 1.0
        f *= C_f
        if df is not None:
            pr **= -(gamma + 1.0) / (2.0 * gamma)
            np.multiply(C_df, pr, out=df)
            np.multiply(x, 0.5, out=pr)
            pr /= t
            np.subtract(1.0, pr, out=pr)
            pr *= sq
            np.copyto(df, pr, where=shock)
        x *= sq
        np.copyto(f, x, where=shock)


# Float rows of a Godunov tile's workspace, after the walk's IO_ROWS.  The
# Newton solve gathers its active set from the first 12 with one take;
# rho and c per side outlive it; everything from _GATHER on is free again
# when the sampling starts.
_SOLVE = slice(0, 12)     # per side (A, B, p_k, C_f, C_df), then du and p
_KEEP = slice(12, 16)     # rho_l, rho_r, c_l, c_r
_GATHER = slice(16, 28)   # the active interfaces' _SOLVE rows
_NEWTON = slice(28, 36)   # f_l, df_l, f_r, df_r and 4 rows of scratch
_SAMPLE = slice(16, 36)   # u*, then the sampling's rows
_NFLOAT, _NBOOL = 36, 5


def _star_state_tile(ws: TileWorkspace, wl: np.ndarray, wr: np.ndarray,
                     gamma: float) -> np.ndarray:
    """:func:`solve_star_pressure` of a ``(4, m)`` tile, on workspace rows.

    Leaves p* in the last ``_SOLVE`` row, u* in the first ``_SAMPLE`` row,
    the floored densities and sound speeds in ``_KEEP`` and the floored
    pressures in the side blocks; returns the iteration counts (the
    workspace's index row).
    """
    m = wl.shape[1]
    rows = ws.floats[IO_ROWS:, :m]
    iters = ws.ints[0, :m]
    solve, newton = rows[_SOLVE], rows[_NEWTON]
    side_l, side_r, du, p = solve[0:5], solve[5:10], solve[10], solve[11]
    rho_l, rho_r, c_l, c_r = rows[_KEEP]
    p_l, p_r = side_l[2], side_r[2]
    u_l, u_r = wl[1], wr[1]
    np.maximum(wl[0], RHO_FLOOR, out=rho_l)
    np.maximum(wl[3], P_FLOOR, out=p_l)
    np.maximum(wr[0], RHO_FLOOR, out=rho_r)
    np.maximum(wr[3], P_FLOOR, out=p_r)

    # Two-rarefaction initial guess.
    g1 = (gamma - 1.0) / (2.0 * gamma)
    for c_k, p_k, rho_k in ((c_l, p_l, rho_l), (c_r, p_r, rho_r)):
        np.multiply(p_k, gamma, out=c_k)
        c_k /= rho_k
        np.sqrt(c_k, out=c_k)
    np.subtract(u_r, u_l, out=du)
    num, den, t = newton[0:3]
    np.add(c_l, c_r, out=num)
    np.multiply(du, 0.5 * (gamma - 1.0), out=t)
    num -= t
    np.maximum(num, 0.0, out=num)
    _pow_into(p_l, g1, den)
    np.divide(c_l, den, out=den)
    _pow_into(p_r, g1, t)
    np.divide(c_r, t, out=t)
    den += t
    np.divide(num, den, out=p)
    p **= 1.0 / g1
    np.maximum(p, P_FLOOR, out=p)
    _side_rows_into(side_l, rho_l, c_l, gamma)
    _side_rows_into(side_r, rho_r, c_r, gamma)

    # Active-set Newton.  ``cur`` holds the active interfaces' solve rows:
    # the rows themselves on the first step, when everything is active,
    # one gather of all 12 afterwards — from the full-width rows (take
    # copies a source that is not contiguous) and with mode="clip" (the
    # default mode buffers the whole output).
    solve_full = ws.floats[IO_ROWS:][_SOLVE]
    gathered = ws.floats[IO_ROWS:][_GATHER].reshape(-1)
    cur, active, na = solve, None, m
    for step in range(1, MAX_ITER + 1):
        if na == 0:
            break
        if active is not None:
            cur = np.take(solve_full, active, axis=1, mode="clip",
                          out=gathered[: 12 * na].reshape(12, na))
        pa = cur[11]
        f_l, df_l, f_r, df_r = newton[0:4, :na]
        scratch, mask = newton[4:8, :na], ws.bools[0, :na]
        _pressure_function_into(pa, cur[0:5], gamma, f_l, df_l, scratch, mask)
        _pressure_function_into(pa, cur[5:10], gamma, f_r, df_r, scratch, mask)
        f_l += f_r
        f_l += cur[10]
        df_l += df_r
        f_l /= df_l
        p_new = np.subtract(pa, f_l, out=f_l)
        np.maximum(p_new, P_FLOOR, out=p_new)
        np.subtract(p_new, pa, out=f_r)
        np.abs(f_r, out=f_r)
        f_r *= 2.0
        np.add(p_new, pa, out=df_r)
        f_r /= df_r
        unconverged = np.less(f_r, TOL, out=mask)
        np.logical_not(unconverged, out=unconverged)
        if active is None:
            iters.fill(1)
            np.copyto(p, p_new)
            active = np.flatnonzero(unconverged)
        else:
            # active on steps 1..k, then frozen: the count is the last step
            iters[active] = step
            p[active] = p_new
            active = active[unconverged]
        na = active.size

    # u* from the closing pressure functions, which need f only (no df).
    f_l, f_r, scratch, mask = newton[0], newton[2], newton[4:8], ws.bools[0, :m]
    _pressure_function_into(p, side_l, gamma, f_l, None, scratch, mask)
    _pressure_function_into(p, side_r, gamma, f_r, None, scratch, mask)
    u_star = rows[_SAMPLE][0]
    f_r -= f_l
    f_r *= 0.5
    np.add(u_l, u_r, out=u_star)
    u_star *= 0.5
    u_star += f_r
    return iters


def _sample_flux_tile(ws: TileWorkspace, wl: np.ndarray, wr: np.ndarray,
                      gamma: float, f: np.ndarray) -> None:
    """:func:`sample_interface` and the flux algebra, into ``f``.

    Picks up where :func:`_star_state_tile` left the rows, and overwrites
    p* with the sampled pressure.
    """
    m = wl.shape[1]
    rows = ws.floats[IO_ROWS:, :m]
    gm1, gp1 = gamma - 1.0, gamma + 1.0
    solve = rows[_SOLVE]
    p_l, p_r, p = solve[2], solve[7], solve[11]
    rho_l, rho_r, c_l, c_r = rows[_KEEP]
    u_l, ut_l, u_r, ut_r = wl[1], wl[2], wr[1], wr[2]
    (u_star, sign, rho_k, p_k, un, us, c_k, ps, s, sh, st, rho, fan_fac,
     t, t2, ut) = rows[_SAMPLE][0:16]
    left, shock, pre, fan, tmp = ws.bools[:, :m]
    np.greater_equal(u_star, 0.0, out=left)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # Reflect into the left-wave frame.
        sign.fill(-1.0)
        np.copyto(sign, 1.0, where=left)
        _where_into(left, rho_l, rho_r, rho_k)
        _where_into(left, p_l, p_r, p_k)
        _where_into(left, u_l, u_r, un)
        un *= sign
        np.multiply(u_star, sign, out=us)
        _where_into(left, c_l, c_r, c_k)
        np.greater(p, p_k, out=shock)
        np.divide(p, p_k, out=ps)
        np.multiply(ps, gp1 / (2 * gamma), out=s)
        s += gm1 / (2 * gamma)
        np.sqrt(s, out=s)
        s *= c_k
        np.subtract(un, s, out=s)
        # rho, u and p start as the star-region values (``us`` becomes u,
        # ``p*`` becomes p) and are overlaid innermost branch first: shock
        # over rarefaction, then the fan, then the pre-wave state.
        _pow_into(ps, 1.0 / gamma, rho)
        rho *= rho_k
        np.add(ps, gm1 / gp1, out=t)
        t *= rho_k
        np.multiply(ps, gm1, out=t2)
        t2 /= gp1
        t2 += 1.0
        t /= t2
        np.copyto(rho, t, where=shock)
        _pow_into(ps, gm1 / (2 * gamma), st)
        st *= c_k
        np.subtract(us, st, out=st)
        np.subtract(un, c_k, out=sh)
        np.greater_equal(sh, 0.0, out=pre)
        np.greater_equal(s, 0.0, out=tmp)
        np.copyto(pre, tmp, where=shock)
        np.logical_not(shock, out=fan)
        np.less(sh, 0.0, out=tmp)
        fan &= tmp
        np.greater(st, 0.0, out=tmp)
        fan &= tmp
        u = us
        if fan.any():
            # x/t = 0 inside a sonic rarefaction: rare, and the dear branch
            # (two powers), so evaluated only when some interface selects it
            np.multiply(c_k, gp1, out=fan_fac)
            np.divide(gm1, fan_fac, out=fan_fac)
            fan_fac *= un
            fan_fac += 2.0 / gp1
            np.maximum(fan_fac, 1e-12, out=fan_fac)
            _pow_into(fan_fac, 2.0 / gm1, t)
            t *= rho_k
            np.copyto(rho, t, where=fan)
            np.multiply(un, 0.5 * gm1, out=t)
            t += c_k
            t *= 2.0 / gp1
            np.copyto(u, t, where=fan)
            _pow_into(fan_fac, 2.0 * gamma / gm1, t)
            t *= p_k
            np.copyto(p, t, where=fan)
        np.copyto(rho, rho_k, where=pre)
        np.copyto(u, un, where=pre)
        u *= sign
        np.copyto(p, p_k, where=pre)
    np.maximum(rho, RHO_FLOOR, out=rho)
    np.maximum(p, P_FLOOR, out=p)

    # Fluxes; the tangential velocity is upwinded by the contact.
    _where_into(left, ut_l, ut_r, ut)
    f_mass, f_momn, f_momt, f_en = f
    np.multiply(rho, u, out=f_mass)
    np.multiply(f_mass, u, out=f_momn)
    f_momn += p
    np.multiply(f_mass, ut, out=f_momt)
    np.multiply(u, u, out=t)
    np.multiply(ut, ut, out=t2)
    t += t2
    np.multiply(rho, 0.5, out=t2)
    t2 *= t
    np.divide(p, gm1, out=t)
    t += t2
    t += p
    np.multiply(t, u, out=f_en)


class GodunovKernel:
    """Exact-Godunov flux evaluation, batched by default.

    ``batch=True`` walks a sweep in bounded tiles (:func:`flux_tiles`) and
    solves each tile's Riemann problems with ``out=`` arithmetic on this
    instance's :class:`TileWorkspace`; a call allocates the flux and the
    iteration counts it hands back and little else.  ``batch=False`` is
    the historical one-line-at-a-time loop over the allocating
    :func:`solve_star_pressure` / :func:`sample_interface`, kept as the
    bitwise oracle.
    """

    def __init__(self, gamma: float = GAMMA_DEFAULT,
                 counters: HardwareCounters | None = None,
                 batch: bool = True) -> None:
        self.gamma = float(gamma)
        self.counters = counters
        self.batch = bool(batch)
        #: cumulative Newton iterations summed over interfaces (the
        #: observable data-dependent work)
        self.total_iterations = 0
        #: per-interface Newton counts of the most recent compute(), in
        #: patch orientation (same shape as ``F[0]``; a transposed view in
        #: mode "y")
        self.last_iter_counts: np.ndarray | None = None
        self.workspace = TileWorkspace(nfloat=IO_ROWS + _NFLOAT, nbool=_NBOOL,
                                       nint=1)

    def _flux_states(self, wl: np.ndarray, wr: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Fluxes + per-interface iteration counts for ``(4, ...)`` stacks."""
        gamma = self.gamma
        rho_l, u_l, ut_l, p_l = (np.maximum(wl[0], RHO_FLOOR), wl[1], wl[2],
                                 np.maximum(wl[3], P_FLOOR))
        rho_r, u_r, ut_r, p_r = (np.maximum(wr[0], RHO_FLOOR), wr[1], wr[2],
                                 np.maximum(wr[3], P_FLOOR))
        p_star, u_star, iters = solve_star_pressure(
            rho_l, u_l, p_l, rho_r, u_r, p_r, gamma
        )
        rho, u, p = sample_interface(
            rho_l, u_l, p_l, rho_r, u_r, p_r, p_star, u_star, gamma
        )
        # Tangential velocity is passively advected: upwind by the contact.
        ut = np.where(u_star >= 0.0, ut_l, ut_r)
        E = p / (gamma - 1.0) + 0.5 * rho * (u * u + ut * ut)
        return np.stack([rho * u, rho * u * u + p, rho * u * ut, (E + p) * u]), iters

    def compute(self, WL: np.ndarray, WR: np.ndarray, mode: str = "x") -> np.ndarray:
        """Interface fluxes for patch-oriented state stacks (see States)."""
        check_mode(mode)
        if WL.shape != WR.shape or WL.ndim != 3 or WL.shape[0] != 4:
            raise ValueError(f"bad state stacks: {WL.shape} vs {WR.shape}")
        F = np.empty(WL.shape, dtype=np.float64)
        # in sweep orientation, so a tile's counts are one contiguous run
        counts = np.empty(sweep_view(WL, mode).shape[1:], dtype=np.int64)
        if self.batch:
            ws = self.workspace
            for at, wl, wr, f, runs in flux_tiles(WL, WR, F, mode, ws):
                iters = _star_state_tile(ws, wl, wr, self.gamma)
                _sample_flux_tile(ws, wl, wr, self.gamma, f)
                dst = counts[at].reshape(-1)
                assert np.shares_memory(dst, counts)
                if runs is None:
                    dst[...] = iters
                else:
                    np.take(ws.ints[0], runs, out=dst, mode="clip")
        else:
            for ell in range(counts.shape[0]):
                flux, iters = self._flux_states(
                    out_line(WL, mode, ell), out_line(WR, mode, ell)
                )
                out_line(F, mode, ell)[...] = flux
                counts[ell] = iters
        counts = unsweep(counts, mode)
        total = int(counts.sum())
        self.total_iterations += total
        self.last_iter_counts = counts
        if self.counters is not None:
            q = int(WL[0].size)
            pattern = AccessPattern.SEQUENTIAL if mode == "x" else AccessPattern.STRIDED
            self.counters.record_array_walk(q, pattern=pattern, passes=3)
            # Exact data-dependent work: summed per-interface Newton counts
            # (formerly approximated as q * mean-iterations-per-line).
            self.counters.record_flops(FLOPS_PER_INTERFACE_PER_ITER * total)
        return F


class GodunovFluxComponent(Component, FluxPort):
    """CCA packaging of :class:`GodunovKernel` (provides port ``"flux"``).

    Substitutable for EFMFlux (same FUNCTIONALITY); higher QUALITY, higher
    cost — the paper's Quality-of-Service trade-off.
    """

    PORT_NAME = "flux"
    FUNCTIONALITY = "flux"
    QUALITY = 1.0

    def __init__(self, gamma: float = GAMMA_DEFAULT, batch: bool = True) -> None:
        self._gamma = gamma
        self._batch = bool(batch)
        self._kernel: GodunovKernel | None = None

    def set_services(self, services: Services) -> None:
        counters = services.framework.profiler.counters
        self._kernel = GodunovKernel(self._gamma, counters, batch=self._batch)
        services.add_provides_port(self, self.PORT_NAME, FluxPort)

    @property
    def kernel(self) -> GodunovKernel:
        if self._kernel is None:
            self._kernel = GodunovKernel(self._gamma, batch=self._batch)
        return self._kernel

    def compute(self, WL: np.ndarray, WR: np.ndarray, mode: str = "x") -> np.ndarray:
        return self.kernel.compute(WL, WR, mode)
