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
average, leaving a per-mode sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnvMode, PhysicalParams, RectBarrier, cumulative_simpson, derivative_5pt, simpson
from .errors import (
    AlignmentError,
    DomainError,
    OutOfRegimeError,
    PrecisionError,
    ResolutionError,
)
from .modes import ModeFunction, log_derivative_2, xi_trajectory
from .rect import RectSolution, TanhBackground, kinetic_density_region2, transmission_probability

_EDGE_TRIM = 1e-3  # trajectory-velocity trim: x in [eps*a, (2-eps)*a]


@dataclass(frozen=True)
class QFactors:
    """Back-reaction factors sampled against trajectory position."""

    xs: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    trimmed: bool


@dataclass(frozen=True)
class BackreactionProfile:
    """Sampled back-reaction quantities over the barrier region."""

    xs: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    v: np.ndarray
    v_eff: np.ndarray
    delta_v: np.ndarray
    p0: np.ndarray
    delta_v_bar: float
    delta_v_mid: float


@dataclass(frozen=True)
class SeriesCoefficients:
    """Extrapolated leading series coefficients of Q1 and Q2 at the exit point."""

    c1: float
    c2: float
    c1_error: float
    c2_error: float


@dataclass(frozen=True)
class GaussianAverageResiduals:
    """Relative quadrature residuals of the Gaussian-averaging coefficients."""

    first_moment: float
    second_moment: float
    cross_moment: float


def q_factors(mode: EnvMode, bg: TanhBackground, mf: ModeFunction) -> QFactors:
    """Q1(x), Q2(x) from the mode function on a time grid.

    Points where the trajectory velocity has effectively stalled
    (x outside [eps*a, (2-eps)*a], eps = 1e-3) are trimmed and flagged.
    """
    ts = np.atleast_1d(mf.t)
    if ts.size == 0:
        raise DomainError("empty mode-function trajectory")
    xs = bg.position(ts)
    keep = (xs >= _EDGE_TRIM * bg.amplitude_a) & (
        xs <= (2.0 - _EDGE_TRIM) * bg.amplitude_a
    )
    trimmed = bool(np.any(~keep))
    if not np.any(keep):
        raise DomainError("trajectory entirely outside the usable window")
    dln = np.atleast_1d(mf.log_derivative())[keep]
    d2ln = np.atleast_1d(log_derivative_2(mode, bg, mf))[keep]
    denom = bg.velocity(ts[keep]) * dln.imag
    q1 = d2ln.real / denom
    q2 = (d2ln.imag / (2.0 * denom)) ** 2
    return QFactors(xs=xs[keep], q1=q1, q2=q2, trimmed=trimmed)


def _neville_to_zero(eps: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Polynomial extrapolation of vals(eps) to eps = 0, with error estimate."""
    n = len(eps)
    tbl = vals.astype(float).copy()
    last = tbl[-1]
    prev = None
    for level in range(1, n):
        for i in range(n - level):
            tbl[i] = tbl[i + 1] + (tbl[i] - tbl[i + 1]) * (0.0 - eps[i + level]) / (
                eps[i] - eps[i + level]
            )
        prev, last = last, tbl[0]
    return float(last), abs(float(last) - float(prev))


def series_coefficients(
    mass_m: float,
    omega0: float,
    amplitude_a: float,
    epsilons: tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025),
) -> SeriesCoefficients:
    """Leading coefficients of Q1 and Q2 at the exit point for rho = omega0.

    For each epsilon = 2 c a/(m rho^2) the exact mode function is evaluated
    at the exit time, then Q1*a/eps and Q2*2a^2/eps^2 are Richardson
    (polynomial) extrapolated to eps -> 0.
    """
    if all(e == 0.0 for e in epsilons):
        return SeriesCoefficients(0.0, 0.0, 0.0, 0.0)
    if any(e <= 0.0 for e in epsilons) or len(set(epsilons)) != len(epsilons):
        raise DomainError("epsilons must be distinct and positive")
    rho = omega0
    bg = TanhBackground(amplitude_a=amplitude_a, rho=rho)
    f1, f2 = [], []
    for eps in epsilons:
        c = eps * mass_m * rho**2 / (2.0 * amplitude_a)
        mode = EnvMode(mass_m=mass_m, omega0=omega0, coupling_c=c)
        qf = q_factors(mode, bg, xi_trajectory(mode, bg, [0.0]))
        f1.append(qf.q1[0] * amplitude_a / eps)
        f2.append(qf.q2[0] * 2.0 * amplitude_a**2 / eps**2)
    eps_arr = np.asarray(epsilons, dtype=float)
    c1, e1 = _neville_to_zero(eps_arr, np.asarray(f1))
    c2, e2 = _neville_to_zero(eps_arr, np.asarray(f2))
    spread1 = max(f1) - min(f1)
    if e1 > max(abs(spread1), 1e-12) or not math.isfinite(c1) or not math.isfinite(c2):
        raise PrecisionError("series extrapolation did not converge")
    return SeriesCoefficients(c1=c1, c2=c2, c1_error=e1, c2_error=e2)


def effective_potential(
    xs: np.ndarray,
    v: np.ndarray,
    p0: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    params: PhysicalParams,
    width_a: float,
) -> BackreactionProfile:
    """Assemble V_eff on the sample grid (uniform spacing required).

    Q1' uses the 5-point interior stencil with one-sided closures; the
    momentum-weighted integral uses cumulative Simpson.  The barrier average
    of Delta V is normalized by the nominal width ``width_a``; the midpoint
    value is reported alongside for sensitivity checks.
    """
    xs = np.asarray(xs, dtype=float)
    v, p0 = np.asarray(v, dtype=float), np.asarray(p0, dtype=float)
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    if not (len(xs) == len(v) == len(p0) == len(q1) == len(q2)):
        raise AlignmentError("profile inputs must share one grid")
    if len(xs) < 6:
        raise ResolutionError("need at least 6 grid points")
    h = xs[1] - xs[0]
    if np.max(np.abs(np.diff(xs) - h)) > 1e-9 * abs(h):
        raise DomainError("effective_potential requires a uniform grid")
    dq1 = derivative_5pt(q1, h, order=1)
    # grid-scale oscillation of the derivative marks an under-resolved Q1
    sign_flips = int(np.sum(np.diff(np.sign(dq1[dq1 != 0])) != 0))
    if sign_flips > len(xs) // 4:
        raise ResolutionError(
            f"Q1' oscillates at grid scale ({sign_flips} sign flips); refine the grid"
        )
    hbar, M = params.hbar, params.mass_M
    integral = cumulative_simpson(hbar * dq1 * p0 / (4.0 * M), xs)
    delta_v = 2.0 * hbar**2 * q1**2 / (32.0 * M) + hbar**2 * q2 / (4.0 * M) - integral
    v_eff = v + delta_v
    delta_v_bar = float(simpson(delta_v, xs)) / width_a
    delta_v_mid = float(np.interp(0.5 * width_a, xs, delta_v))
    return BackreactionProfile(
        xs=xs, q1=q1, q2=q2, v=v, v_eff=v_eff, delta_v=delta_v, p0=p0,
        delta_v_bar=delta_v_bar, delta_v_mid=delta_v_mid,
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
    from .core import RectBarrier as _RB
    from .rect import solve_rect as _solve

    shifted = _RB(height_V0=sol.barrier.height_V0 + delta_v, width_a=sol.barrier.width_a)
    return transmission_probability(_solve(sol.params, shifted)).closed_form


def gaussian_average_check(
    states: list[tuple[float, float]],
    hbar: float = 1.0,
) -> GaussianAverageResiduals:
    """Quadrature check of the Gaussian-averaging coefficients.

    Each state is an (alpha, beta') pair.  The phase gradient W' = beta' y^2/2
    averaged over |phi|^2 ~ exp(-alpha^2 y^2/hbar) must give
    <W'> = hbar beta'/(4 alpha^2) and <W'^2> = 3 hbar^2 beta'^2/(16 alpha^4);
    independent modes factorize, fixing the 1/16 cross coefficient.
    Returns the worst relative residual per coefficient.
    """
    from scipy.integrate import quad

    if not states:
        raise DomainError("need at least one (alpha, beta') state")
    res1 = res2 = 0.0

    def moments(alpha: float) -> tuple[float, float, float]:
        weight = lambda y: math.exp(-(alpha**2) * y * y / hbar)
        norm = quad(weight, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
        m2 = quad(lambda y: weight(y) * y * y, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
        m4 = quad(lambda y: weight(y) * y**4, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
        return norm, m2 / norm, m4 / norm

    cached = []
    for alpha, beta_p in states:
        if alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {alpha}")
        _, y2, y4 = moments(alpha)
        w1 = beta_p * y2 / 2.0
        w2 = beta_p**2 * y4 / 4.0
        ref1 = hbar * beta_p / (4.0 * alpha**2)
        ref2 = 3.0 * hbar**2 * beta_p**2 / (16.0 * alpha**4)
        scale1 = max(abs(ref1), hbar)
        scale2 = max(abs(ref2), hbar**2)
        res1 = max(res1, abs(w1 - ref1) / scale1)
        res2 = max(res2, abs(w2 - ref2) / scale2)
        cached.append((w1, ref1))
    resx = 0.0
    for i in range(len(cached)):
        for j in range(i + 1, len(cached)):
            # product measure: <W_m' W_n'> = <W_m'><W_n'>, coefficient 1/16
            cross = cached[i][0] * cached[j][0]
            ref = cached[i][1] * cached[j][1]
            resx = max(resx, abs(cross - ref) / max(abs(ref), hbar**2))
    return GaussianAverageResiduals(first_moment=res1, second_moment=res2, cross_moment=resx)


def multi_mode_superpose(
    profiles: list[BackreactionProfile],
    template: tuple | None = None,
) -> BackreactionProfile:
    """Total back reaction of several modes on a common grid.

    The factors add linearly, and so does Delta V: completing the square on
    the effective Hamiltonian cancels the Gaussian-average cross terms, so
    the quadratic contribution is the per-mode sum of squares.  With an
    empty mode list, an (xs, v, p0) template yields the bare potential.
    """
    if not profiles:
        if template is None:
            raise DomainError("no profiles and no (xs, v, p0) template")
        xs, v, p0 = (np.asarray(t, dtype=float) for t in template)
        zero = np.zeros_like(xs)
        return BackreactionProfile(
            xs=xs, q1=zero, q2=zero.copy(), v=v, v_eff=v.copy(),
            delta_v=zero.copy(), p0=p0, delta_v_bar=0.0, delta_v_mid=0.0,
        )
    first = profiles[0]
    for p in profiles[1:]:
        if len(p.xs) != len(first.xs) or np.max(np.abs(p.xs - first.xs)) > 1e-12:
            raise AlignmentError("profiles sampled on different grids")
        if np.max(np.abs(p.v - first.v)) > 1e-12:
            raise AlignmentError("profiles carry different bare potentials")
    q1 = np.sum([p.q1 for p in profiles], axis=0)
    q2 = np.sum([p.q2 for p in profiles], axis=0)
    delta_v = np.sum([p.delta_v for p in profiles], axis=0)
    return BackreactionProfile(
        xs=first.xs,
        q1=q1,
        q2=q2,
        v=first.v,
        v_eff=first.v + delta_v,
        delta_v=delta_v,
        p0=first.p0,
        delta_v_bar=float(sum(p.delta_v_bar for p in profiles)),
        delta_v_mid=float(sum(p.delta_v_mid for p in profiles)),
    )


def rect_mode_backreaction(
    sol: RectSolution,
    mode: EnvMode,
    num_points: int = 2000,
    edge_fraction: float = _EDGE_TRIM,
) -> BackreactionProfile:
    """Single-mode back-reaction profile over the rectangular barrier.

    Builds the tanh trajectory of the solution, evaluates the exact mode
    function along it, and assembles the effective potential on a uniform
    grid over [eps*a, a] using the unperturbed effective-classical momentum
    p0 = sqrt(2 M (E - V_tot)).
    """
    from .rect import classical_trajectory

    bg = classical_trajectory(sol, mode="tanh")
    a = sol.barrier.width_a
    xs = np.linspace(edge_fraction * a, a, num_points)
    ts = bg.time_at(np.clip(xs, edge_fraction * a, (2.0 - edge_fraction) * a))
    qf = q_factors(mode, bg, xi_trajectory(mode, bg, ts))
    if len(qf.xs) != len(xs):
        raise DomainError("trajectory trim removed requested grid points")
    p0 = np.sqrt(2.0 * sol.params.mass_M * kinetic_density_region2(sol, xs))
    v = np.full_like(xs, sol.barrier.height_V0)
    return effective_potential(xs, v, p0, qf.q1, qf.q2, sol.params, width_a=a)
