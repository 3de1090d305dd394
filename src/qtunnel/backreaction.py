"""Back reaction of environment-mode excitation on the tunneling system.

From the mode function along the trajectory, the two back-reaction factors

    Q1 = beta'/alpha^2 = Re(d^2 ln xi/dt^2) / (xdot * Im(d ln xi/dt))
    Q2 = (alpha'/alpha)^2 = [Im(d^2 ln xi/dt^2) / (2 xdot Im(d ln xi/dt))]^2

(primes are x-derivatives along the trajectory) feed the effective potential

    V_eff = V + 2 hbar^2 Q1^2/(32 M) + hbar^2 Q2/(4 M)
              - int_0^x hbar Q1'(x') p0(x') dx' / (4 M),

whose positive shift Delta V = V_eff - V suppresses the transmission
probability.  Multi-mode totals superpose linearly: completing the square on
the effective Hamiltonian cancels the 1/16 cross terms of the Gaussian
average, leaving a per-mode sum of squares.  So all modes run in one pass:
``q_factors`` gives one row of Q1, Q1', Q2 per mode on a shared grid of
positions (no time grid), and ``effective_potential`` turns those (mode, point)
arrays into each mode's Delta V and returns the sum over the modes.  Each
mode's barrier average of Delta V is one smooth integral, by parts, taken by
Gauss-Legendre to convergence; the grid's own average misses it by its error.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .core import EnvMode, PhysicalParams, RectBarrier
from .errors import (
    AlignmentError,
    DomainError,
    OutOfRegimeError,
    PrecisionError,
    ResolutionError,
)
from .grid import cumulative_simpson, legendre_nodes, legendre_sum
from .modes import _omega2, grid_blocks, log_derivative
from .rect import (RectSolution, TanhBackground, classical_trajectory, kinetic_density_region2,
                   solve_rect, transmission_probability)

_EDGE_TRIM = 1e-3  # trajectory-velocity trim: x in [eps*a, (2-eps)*a]
_RESOLUTION_TOL = 1e-3  # the grid's Delta V_bar error over the average of |Delta V|
# Gauss-Legendre on p and 2p panels agree within this share of the integral of
# |A| + |(a - x) f|; the 2F1 scatters at ~1e-12, so not tighter
_PANEL_TOL = 1e-11
_MAX_PANELS = 128


class QFactors(NamedTuple):
    """Back-reaction factors sampled against trajectory position; ``q1``,
    ``q2`` and Q1' ``dq1`` have one row per mode."""

    xs: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    dq1: np.ndarray
    trimmed: bool


class BackreactionProfile(NamedTuple):
    """Sampled back-reaction quantities over the barrier region."""

    xs: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    v: np.ndarray
    v_eff: np.ndarray
    delta_v: np.ndarray
    p0: np.ndarray
    delta_v_bar: float


def q_factors(modes: Sequence[EnvMode], bg: TanhBackground, xs) -> QFactors:
    """Q1(x), Q2(x) and Q1'(x) at the trajectory positions ``xs``, one row per mode.

    Positions where the trajectory velocity has effectively stalled
    (x outside [eps*a, (2-eps)*a], eps = 1e-3) are trimmed and flagged.  On
    x(t) = a(1 + tanh rho t) the 2F1 argument is z = x/2a and xdot = 4 a rho
    z w, w = (2a - x)/2a; each block of ``grid_blocks`` takes one kernel call,
    which bounds the kernel's working set and keeps the bits of one call over
    the grid.  PrecisionError names the first x, and its mode (from 1), where
    Q1, Q1' or Q2 is not a finite double.
    """
    a = bg.amplitude_a
    if not math.isfinite(bg.rho):  # rho = hbar k/(a M) of a rect solution can overflow
        raise DomainError(f"trajectory rate rho = {bg.rho} is not a finite double")
    xs = np.asarray(xs, dtype=float)
    keep = (xs >= _EDGE_TRIM * a) & (xs <= (2.0 - _EDGE_TRIM) * a)
    trimmed = bool(np.any(~keep))
    if not np.any(keep):
        raise DomainError("trajectory entirely outside the usable window")
    if trimmed:
        xs = xs[keep]
    q = np.empty((3, len(modes), xs.size))
    for blk in grid_blocks(len(modes), xs.size):
        x = xs[blk]
        z, w = x / (2.0 * a), (2.0 * a - x) / (2.0 * a)
        _, dln = log_derivative(modes, bg, z, w)
        # omega^2 > 0 once log_derivative has checked omega_infinity^2: it is
        # linear in x.  The oscillator equation, omega^2 as sqrt(omega^2)^2
        om2, slope = _omega2(modes, x)
        d2ln = -np.square(np.sqrt(om2)) - dln * dln
        # xdot as a rho (4 z w), 4 z w <= 1: finite wherever a rho is
        xdot = (a * bg.rho) * (4.0 * z * w)
        denom = xdot * dln.imag
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # rows of the C-ordered q: numpy adds them in mode order later
            q[0, :, blk] = d2ln.real / denom
            q[1, :, blk] = (d2ln.imag / (2.0 * denom)) ** 2
            # Q1' = (dQ1/dt)/xdot = (Re L'' - Q1 d denom/dt)/(xdot denom), L = d ln xi/dt:
            # L'' = -(d omega^2/dx) xdot - 2 L L' and xddot = 2 rho (w - z) xdot
            dq1 = -slope - 2.0 * (dln * d2ln).real / xdot  # Re L''/xdot
            dq1 -= q[0, :, blk] * ((2.0 * bg.rho) * (w - z) * dln.imag + d2ln.imag)
            q[2, :, blk] = dq1 / denom
    bad = ~np.isfinite(q).all(axis=0)
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        raise PrecisionError(f"Q1, Q1' or Q2 leaves double range: mode "
                             f"{np.argmax(bad[:, j]) + 1} at x = {xs[j]}")
    return QFactors(xs=xs, q1=q[0], q2=q[1], dq1=q[2], trimmed=trimmed)


def _coefficients(q1, q2, dq1, p0, hbar: float, M: float):
    """A = 2 hbar^2 Q1^2/(32 M) + hbar^2 Q2/(4 M) and f = hbar Q1' p0/(4 M), new
    arrays of Q1's shape, so that Delta V(x) = A(x) - int_lo^x f."""
    f = hbar * dq1
    f *= p0
    f /= 4.0 * M
    shift = np.square(q1)
    shift *= 2.0 * hbar**2
    shift /= 32.0 * M
    q2_term = hbar**2 * q2
    shift += np.divide(q2_term, 4.0 * M, out=q2_term)
    return shift, f


def _barrier_integrals(at_nodes: Callable, count: int, lo: float, hi: float, hbar: float,
                       M: float) -> list[float]:
    """int_lo^hi Delta V dx of each of ``count`` modes, by parts
    int_lo^hi [A - (hi - x) f] dx: one smooth integrand, by the Gauss-Legendre
    rule on p and 2p panels from p = 1, each mode's p doubling until the two
    agree within _PANEL_TOL of the integral of |A| + |(hi - x) f|.
    ``at_nodes(panels, rows)`` gives Q1, Q2, Q1' (a row per mode of ``rows``)
    and p0 at ``grid.legendre_nodes(lo, hi, panels)``.  ResolutionError past
    _MAX_PANELS panels."""
    def rule(panels, rows):
        shift, f = _coefficients(*at_nodes(panels, rows), hbar, M)
        f *= hi - legendre_nodes(lo, hi, panels)
        return shift - f, np.abs(shift) + np.abs(f)

    # each mode's sums take its own row, one at a time: a matrix product over
    # the modes would round each sum by how many there are
    (first, _), (second, scales) = rule(1, slice(None)), rule(2, slice(None))
    out = []
    for k in range(count):
        last, value, scale, panels = (legendre_sum(first[k], lo, hi),
                                      legendre_sum(second[k], lo, hi), scales[k], 2)
        while abs(value - last) > _PANEL_TOL * legendre_sum(scale, lo, hi):
            if panels == _MAX_PANELS:
                raise ResolutionError(f"Delta V_bar of mode {k + 1} is not converged on "
                                      f"{panels} Gauss-Legendre panels")
            panels *= 2
            (finer,), (scale,) = rule(panels, slice(k, k + 1))
            last, value = value, legendre_sum(finer, lo, hi)
        out.append(value)
    return out


def effective_potential(xs: np.ndarray, v: np.ndarray, p0: np.ndarray, q1: np.ndarray,
                        q2: np.ndarray, dq1: np.ndarray, params: PhysicalParams,
                        width_a: float, at_nodes: Callable) -> BackreactionProfile:
    """Assemble V_eff on the sample grid (uniform spacing required).

    ``q1``, ``q2`` and Q1' ``dq1`` have shape (n,) or (modes, n); the profile
    holds the sums over the modes, added in mode order.  The momentum-weighted
    integral uses cumulative Simpson.  Delta V_bar is the sum of
    ``_barrier_integrals`` over [xs[0], xs[-1]], with ``at_nodes``, over the
    nominal width ``width_a``.  ResolutionError when composite Simpson of the
    grid's Delta V misses that sum by more than _RESOLUTION_TOL of the grid's
    integral of |Delta V|: the grid's measured error, 9.7e-5 of it for the
    defaults on 16 points and 3.0e-3 for ``fig3 --a 3 --omega0 0.02 --c 0.5
    --m 0.1 --grid-points 64``.
    """
    xs, v, p0 = (np.asarray(u, dtype=float) for u in (xs, v, p0))
    q1, q2, dq1 = np.atleast_2d(*(np.asarray(q, dtype=float) for q in (q1, q2, dq1)))
    if not (len(xs) == len(v) == len(p0) == q1.shape[-1] and q1.shape == q2.shape == dq1.shape):
        raise AlignmentError("profile inputs must share one grid")
    if len(xs) < 6:
        raise ResolutionError("need at least 6 grid points")
    h = xs[1] - xs[0]
    if np.max(np.abs(np.diff(xs) - h)) > 1e-9 * abs(h):
        raise DomainError("effective_potential requires a uniform grid")
    hbar, M = params.hbar, params.mass_M
    delta_v, f = _coefficients(q1, q2, dq1, p0, hbar, M)
    delta_v -= cumulative_simpson(f, h)
    del f
    integrals = _barrier_integrals(at_nodes, len(q1), xs[0], xs[-1], hbar, M)
    # numpy adds C-contiguous rows in mode order, and so does Python's sum
    delta_v_bar = sum(integral / width_a for integral in integrals)
    delta_v = delta_v.sum(axis=0)
    error = cumulative_simpson(delta_v, h)[-1] - sum(integrals)
    scale = cumulative_simpson(np.abs(delta_v), h)[-1]
    if abs(error) > _RESOLUTION_TOL * scale:
        raise ResolutionError(f"Delta V_bar on the grid is off by {abs(error) / scale:.2g} of "
                              "the barrier average of |Delta V|; refine the grid")
    return BackreactionProfile(
        xs=xs, q1=q1.sum(axis=0), q2=q2.sum(axis=0), v=v, v_eff=v + delta_v,
        delta_v=delta_v, p0=p0, delta_v_bar=delta_v_bar,
    )


def modified_probability(sol: RectSolution, delta_v_bar: float) -> float:
    """Transmission probability corrected by the averaged potential shift.

    P = P0 [1 + (1/beta^2 - 2/(beta^2+k^2)) 2M dV/hbar^2] exp(-2 M a dV/(beta hbar^2)).
    Valid while 2 M a dV/(beta hbar^2) < 1; beyond that the exact re-solve
    is reported through the error.
    """
    k, beta, a = sol.k, sol.beta, sol.barrier.width_a
    hbar, M = sol.params.hbar, sol.params.mass_M
    p0 = transmission_probability(sol).closed_form
    if delta_v_bar == 0.0:
        return p0
    exponent_scale = 2.0 * M * a * delta_v_bar / (beta * hbar**2)
    if exponent_scale >= 1.0:
        exact = _resolve_probability(sol, delta_v_bar)
        raise OutOfRegimeError(
            f"potential shift too large for the perturbative formula "
            f"(2 M a dV/(beta hbar^2) = {exponent_scale:.3g} >= 1); "
            f"exact re-solve gives P = {exact:.6g}",
            exact_value=exact,
        )
    bracket = 1.0 + (1.0 / beta**2 - 2.0 / (beta**2 + k**2)) * 2.0 * M * delta_v_bar / hbar**2
    return p0 * bracket * math.exp(-exponent_scale)


def _resolve_probability(sol: RectSolution, delta_v: float) -> float:
    shifted = RectBarrier(height_V0=sol.barrier.height_V0 + delta_v, width_a=sol.barrier.width_a)
    return transmission_probability(solve_rect(sol.params, shifted)).closed_form


def rect_mode_backreaction(
    sol: RectSolution,
    *modes: EnvMode,
    num_points: int = 2000,
) -> BackreactionProfile:
    """Back-reaction profile of one or more modes over the rectangular barrier.

    Builds the tanh trajectory of the solution and a uniform grid over
    [eps*a, a], with the unperturbed effective-classical momentum
    p0 = sqrt(2 M (E - V_tot)).  One ``q_factors`` call gives every mode's
    Q1, Q1', Q2 at those positions and at the 72 Gauss-Legendre nodes of 1
    and 2 panels as (mode, point) arrays; a mode that needs more panels
    takes a call of its own for each.  One ``effective_potential`` call then
    adds the modes' Q1, Q2, Delta V and barrier averages in mode order,
    because completing the square on the effective Hamiltonian cancels the
    Gaussian-average cross terms.
    """
    if not modes:
        raise DomainError("need at least one environment mode")
    a, M, n = sol.barrier.width_a, sol.params.mass_M, num_points
    lo, bg = _EDGE_TRIM * a, classical_trajectory(sol)

    def factors(mode_set, x):
        qf = q_factors(mode_set, bg, x)
        return qf.q1, qf.q2, qf.dq1, np.sqrt(2.0 * M * kinetic_density_region2(sol, x))

    # the grid, then the nodes of 1 and 2 Gauss-Legendre panels, in one
    # q_factors call; the grid is a view of that one array
    xs = np.concatenate((np.linspace(lo, a, n), legendre_nodes(lo, a), legendre_nodes(lo, a, 2)))
    q1, q2, dq1, p0 = factors(modes, xs)

    def at_nodes(panels, rows):
        if panels > 2:
            return factors(modes[rows], legendre_nodes(lo, a, panels))
        nodes = slice(n + 24 * (panels - 1), n + 24 * (2 * panels - 1))
        return q1[rows, nodes], q2[rows, nodes], dq1[rows, nodes], p0[nodes]

    v = np.broadcast_to(sol.barrier.height_V0, n)  # one value, read-only, for the V column
    return effective_potential(xs[:n], v, p0[:n], q1[:, :n], q2[:, :n], dq1[:, :n], sol.params,
                               a, at_nodes)
