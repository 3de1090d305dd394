"""Exact solution of the rectangular-barrier tunneling problem.

Stationary scattering state with unit transmitted amplitude (C = 1), plus the
observables built on it: transmission probability, total potential in the
barrier region, quantum potential from amplitude samples, rolling (traversal)
time in closed form, and the tanh-approximated trajectory x(t) of the
effective classical particle (no inverse map: back-reaction code works on
positions).

All operations are pure functions over the immutable solution record.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .core import LOG_DOUBLE_MAX, PhysicalParams, RectBarrier, derivative_5pt, wave_numbers
from .errors import DomainError, NodeSingularityError, PrecisionError

_REGION_I, _REGION_II, _REGION_III = 0, 1, 2


class RectSolution(NamedTuple):
    """Scattering coefficients and wave numbers of the rectangular barrier."""

    A: complex
    B: complex
    C: complex
    F: complex
    G: complex
    k: float
    beta: float
    lambda_plus: complex
    lambda_minus: complex
    barrier: RectBarrier
    params: PhysicalParams


class PotentialProfile(NamedTuple):
    """Sampled bare potential, total potential, and kinetic density E - V_tot."""

    xs: np.ndarray
    v: np.ndarray
    v_tot: np.ndarray
    e_minus_vtot: np.ndarray


class TransmissionProbability(NamedTuple):
    """Tunneling probability by two routes that must agree to 1e-10."""

    from_amplitudes: float
    closed_form: float


class TanhBackground(NamedTuple):
    """Tunneling trajectory approximated as x(t) = a (1 + tanh(rho t)).

    Ranges over (0, 2a), monotone increasing, with x(0) = a at the barrier
    exit where particle creation peaks.
    """

    amplitude_a: float
    rho: float

    def position(self, t):
        return self.amplitude_a * (1.0 + np.tanh(self.rho * np.asarray(t, dtype=float)))


def check_thickness(beta: float, width_a: float) -> None:
    """PrecisionError when 2 beta a takes e^(2 beta a) beyond double range:
    |A|^2, cosh^2(beta a) and sinh(2 beta a) all grow like it."""
    if 2.0 * beta * width_a > LOG_DOUBLE_MAX:
        raise PrecisionError(
            f"barrier too thick: 2 beta a = {2.0 * beta * width_a:.6g} puts e^(2 beta a) "
            f"beyond double range (e^{LOG_DOUBLE_MAX:.6g})"
        )


def solve_rect(params: PhysicalParams, barrier: RectBarrier) -> RectSolution:
    """Solve the smoothness conditions at the barrier edges with C = 1.

    Raises PrecisionError when the barrier fails ``check_thickness``.
    """
    k, beta = wave_numbers(params, barrier)
    a = barrier.width_a
    check_thickness(beta, a)
    if not k * k * beta * beta > 0.0:  # numerator of P and of E - V_tot
        raise PrecisionError(f"k^2 beta^2 underflows double range: k = {k:.3g}, beta = {beta:.3g}")
    lam_p = complex(beta, k)
    lam_m = complex(beta, -k)
    C = 1.0 + 0.0j
    phase = C * np.exp(1j * k * a)
    F = phase * lam_m * math.exp(beta * a) / (2.0 * beta)
    G = phase * lam_p * math.exp(-beta * a) / (2.0 * beta)
    pre = -phase / (4j * k * beta)
    A = pre * (lam_m**2 * math.exp(beta * a) - lam_p**2 * math.exp(-beta * a))
    B = pre * (lam_m * lam_p * (math.exp(-beta * a) - math.exp(beta * a)))
    sol = RectSolution(A=A, B=B, C=C, F=F, G=G, k=k, beta=beta,
                       lambda_plus=lam_p, lambda_minus=lam_m,
                       barrier=barrier, params=params)
    _check_solution(sol)
    return sol


def _check_solution(sol: RectSolution) -> None:
    if not all(cmath.isfinite(c) for c in (sol.A, sol.B, sol.F, sol.G)):
        raise PrecisionError("scattering coefficients overflow double range")
    # |A|^2 may overflow to inf near the double-range edge, making the defect
    # NaN; the test is written so that a NaN defect fails
    with np.errstate(over="ignore", invalid="ignore"):
        flux_defect = abs(abs(sol.A) ** 2 - abs(sol.B) ** 2 - abs(sol.C) ** 2)
        in_balance = flux_defect <= 1e-12 * abs(sol.A) ** 2
    if not in_balance:
        raise PrecisionError(f"flux conservation violated by {flux_defect:.3e}")
    for x, region in ((0.0, _REGION_I), (sol.barrier.width_a, _REGION_II)):
        left, dleft = _region_wave(sol, x, region)
        right, dright = _region_wave(sol, x, region + 1)
        if abs(left - right) > 1e-10 * abs(left):
            raise PrecisionError(f"wavefunction discontinuous at x = {x}")
        if abs(dleft - dright) > 1e-10 * abs(dleft):
            raise PrecisionError(f"wavefunction slope discontinuous at x = {x}")


def _region_wave(sol: RectSolution, x, region: int):
    """phi and phi' at points x that all lie in ``region``."""
    x = np.asarray(x, dtype=float)
    if region == _REGION_I:
        e, e_back = np.exp(1j * sol.k * x), np.exp(-1j * sol.k * x)
        return sol.A * e + sol.B * e_back, 1j * sol.k * (sol.A * e - sol.B * e_back)
    if region == _REGION_II:
        e_down, e_up = np.exp(-sol.beta * x), np.exp(sol.beta * x)
        return sol.F * e_down + sol.G * e_up, sol.beta * (-sol.F * e_down + sol.G * e_up)
    e = np.exp(1j * sol.k * x)
    return sol.C * e, 1j * sol.k * sol.C * e


def _piecewise(sol: RectSolution, x):
    """phi and phi' on the region each x falls in; scalar or array."""
    x = np.asarray(x, dtype=float)
    regions = np.where(x < 0.0, _REGION_I,
                       np.where(x <= sol.barrier.width_a, _REGION_II, _REGION_III))
    out = np.empty((2,) + x.shape, dtype=complex)
    for region in (_REGION_I, _REGION_II, _REGION_III):
        mask = regions == region
        if np.any(mask):
            out[:, mask] = _region_wave(sol, x[mask], region)
    return (out[0], out[1]) if x.shape else (complex(out[0]), complex(out[1]))


def transmission_probability(sol: RectSolution) -> TransmissionProbability:
    """P = |C/A|^2, cross-checked against the closed form."""
    k, beta, a = sol.k, sol.beta, sol.barrier.width_a
    p_amp = abs(sol.C) ** 2 / abs(sol.A) ** 2
    # 1/P = 1 + (sinh(beta a) (k^2 + beta^2)/(2 k beta))^2: no cancellation
    p_closed = 1.0 / (1.0 + (math.sinh(beta * a) * (k**2 + beta**2) / (2.0 * k * beta)) ** 2)
    if abs(p_amp - p_closed) > 1e-10 * p_closed:
        raise PrecisionError(
            f"transmission routes disagree: {p_amp!r} vs {p_closed!r}"
        )
    return TransmissionProbability(p_amp, p_closed)


def kinetic_density_region2(sol: RectSolution, x):
    """Closed-form E - V_tot(x) inside the barrier, manifestly positive."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > sol.barrier.width_a):
        raise DomainError("region II closed form requires 0 <= x <= a")
    k, beta = sol.k, sol.beta
    hbar, M = sol.params.hbar, sol.params.mass_M
    # D (or D^2) overflows to inf where the true value underflows to 0
    with np.errstate(over="ignore"):
        val = (hbar**2 * beta**2 / (2.0 * M)) * 4.0 * k**2 * beta**2 / _denominator(sol, x)**2
    return val if val.shape else float(val)


def _denominator(sol: RectSolution, x: np.ndarray) -> np.ndarray:
    """D in E - V_tot = (hbar^2 beta^2/2M) 4 k^2 beta^2/D^2."""
    k, beta = sol.k, sol.beta
    return (k**2 + beta**2) * np.cosh(2.0 * beta * (sol.barrier.width_a - x)) + (beta**2 - k**2)


def total_potential_region2(sol: RectSolution, x):
    """Total potential V + V_Q inside the barrier via the closed form."""
    return sol.params.energy_E - kinetic_density_region2(sol, x)


def quantum_potential(r: np.ndarray, dx: float, params: PhysicalParams,
                      x0: float = 0.0) -> np.ndarray:
    """V_Q = -(hbar^2/2M) R''/R from uniform amplitude samples.

    R'' by ``core.derivative_5pt``.  The samples must be nodeless (R > 0
    throughout).
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size < 6:
        raise DomainError("quantum_potential needs a 1-D array of at least 6 samples")
    if np.any(r <= 0.0):
        i = int(np.argmin(r))
        raise NodeSingularityError(
            f"wavefunction node in evaluation window near x = {x0 + i * dx}",
            location=x0 + i * dx,
        )
    d2 = derivative_5pt(r, dx, order=2)
    return -(params.hbar**2 / (2.0 * params.mass_M)) * d2 / r


def potential_profile(sol: RectSolution, xs: np.ndarray) -> PotentialProfile:
    """V, V_tot, and E - V_tot on a grid spanning any of the three regions.

    Inside the barrier the closed form is used; outside, V_Q comes from the
    analytic amplitude curvature of the interference pattern (the wavefunction
    is known in closed form, so no finite differences are needed).
    """
    xs = np.asarray(xs, dtype=float)
    a = sol.barrier.width_a
    E = sol.params.energy_E
    hbar, M = sol.params.hbar, sol.params.mass_M
    inside = (xs >= 0.0) & (xs <= a)
    v = np.where(inside, sol.barrier.height_V0, 0.0)
    v_tot = np.empty_like(xs)
    v_tot[inside] = total_potential_region2(sol, xs[inside])
    # k x near the double limit, or |phi|^2 ~ |A|^2 near the double-range edge,
    # may overflow: V_Q turns NaN there, and the CLI refuses to write it
    with np.errstate(over="ignore", invalid="ignore"):
        phi, dphi = _piecewise(sol, xs[~inside])
        # exact curvature: phi'' = -k^2 phi outside the barrier
        d2phi = -sol.k**2 * phi
        r2 = np.abs(phi) ** 2
        r = np.sqrt(r2)
        dr = np.real(np.conj(phi) * dphi) / r
        d2r = (np.abs(dphi) ** 2 + np.real(np.conj(phi) * d2phi) - dr**2) / r
        v_tot[~inside] = -(hbar**2 / (2.0 * M)) * d2r / r
    return PotentialProfile(xs=xs, v=v, v_tot=v_tot, e_minus_vtot=E - v_tot)


def rolling_time(sol: RectSolution) -> float:
    """Closed-form traversal time of the barrier region."""
    k, beta, a = sol.k, sol.beta, sol.barrier.width_a
    hbar, M = sol.params.hbar, sol.params.mass_M
    return (M / (4.0 * hbar * k * beta**2)) * (
        (k**2 + beta**2) / beta * math.sinh(2.0 * beta * a)
        + 2.0 * a * (beta**2 - k**2)
    )


def classical_trajectory(sol: RectSolution) -> TanhBackground:
    """Trajectory a(1 + tanh(rho t)) of the effective classical particle through
    the barrier, with rho = hbar k/(a M), anchored so x(0) = a at the barrier exit."""
    rho = sol.params.hbar * sol.k / (sol.barrier.width_a * sol.params.mass_M)
    return TanhBackground(amplitude_a=sol.barrier.width_a, rho=rho)
