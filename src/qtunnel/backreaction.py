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
arrays into each mode's Delta V and returns the sum over the modes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from .grid import cumulative_simpson
from .modes import _omega2, grid_blocks, log_derivative
from .rect import (RectSolution, TanhBackground, classical_trajectory, kinetic_density_region2,
                   solve_rect, transmission_probability)

_EDGE_TRIM = 1e-3  # trajectory-velocity trim: x in [eps*a, (2-eps)*a]
_RESOLUTION_TOL = 1e-3  # Delta V_bar's h-against-2h error over the average of |Delta V|


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


def effective_potential(xs: np.ndarray, v: np.ndarray, p0: np.ndarray, q1: np.ndarray,
                        q2: np.ndarray, dq1: np.ndarray, params: PhysicalParams,
                        width_a: float) -> BackreactionProfile:
    """Assemble V_eff on the sample grid (uniform spacing required).

    ``q1``, ``q2`` and Q1' ``dq1`` have shape (n,) or (modes, n); the profile
    holds the sums over the modes, added in mode order.  The momentum-weighted
    integral uses cumulative Simpson, and so does the barrier average of
    Delta V (its last value), normalized by the nominal width ``width_a``.
    ResolutionError when that average's error estimate, from every other
    sample at step 2h, exceeds _RESOLUTION_TOL times the average of |Delta V|;
    the estimate holds only once the error falls as h^4.
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
    # in place: hbar Q1' p0/(4 M) and its running integrals at h and 2h, then
    # 2 hbar^2 Q1^2/(32 M) + hbar^2 Q2/(4 M) - integral, so that at most three
    # (mode, point) arrays and Delta V at step 2h (half of one) are held at once
    work = hbar * dq1
    work *= p0
    work /= 4.0 * M
    integral = cumulative_simpson(work, h)
    coarse = cumulative_simpson(work[:, ::2], 2.0 * h)
    delta_v = np.square(q1, out=work)  # work's rows take Delta V
    del work
    delta_v *= 2.0 * hbar**2
    delta_v /= 32.0 * M
    q2_term = hbar**2 * q2
    delta_v += np.divide(q2_term, 4.0 * M, out=q2_term)
    del q2_term
    np.subtract(delta_v[:, ::2], coarse, out=coarse)  # Delta V at step 2h
    delta_v -= integral
    del integral
    k = (len(xs) - 1) // 4 * 4  # composite Simpson at h and at 2h, both to sample 4j
    fine = cumulative_simpson(delta_v, h)[:, [k, -1]]
    error = np.sum(cumulative_simpson(coarse, 2.0 * h)[:, k // 2] - fine[:, 0]) / 15.0
    del coarse
    # numpy adds C-contiguous rows in mode order; np.sum over the barrier
    # averages would add 8 or more of them pairwise
    delta_v_bar = sum((fine[:, 1] / width_a).tolist())
    delta_v = delta_v.sum(axis=0)
    if len(xs) % 2 == 0:  # the one-interval end piece against the cubic through 4 samples
        error += h * np.diff(delta_v[-4:], 3)[0] / 24.0
    scale = cumulative_simpson(np.abs(delta_v), h)[-1]
    if abs(error) > _RESOLUTION_TOL * scale:
        raise ResolutionError(f"Delta V_bar's error estimate is {abs(error) / scale:.2g} of the "
                              "barrier average of |Delta V| (h against 2h); refine the grid")
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
    Q1, Q1', Q2 at those positions as (mode, point) arrays, and one
    ``effective_potential`` call then adds the modes' Q1, Q2, Delta V and
    barrier averages in mode order, because completing the square on the
    effective Hamiltonian cancels the Gaussian-average cross terms.
    """
    if not modes:
        raise DomainError("need at least one environment mode")
    a = sol.barrier.width_a
    xs = np.linspace(_EDGE_TRIM * a, a, num_points)
    qf = q_factors(modes, classical_trajectory(sol), xs)
    p0 = np.sqrt(2.0 * sol.params.mass_M * kinetic_density_region2(sol, xs))
    v = np.full_like(xs, sol.barrier.height_V0)
    return effective_potential(xs, v, p0, qf.q1, qf.q2, qf.dq1, sol.params, width_a=a)
