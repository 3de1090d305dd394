"""Exact solution of the rectangular-barrier tunneling problem.

Stationary scattering state with unit transmitted amplitude (C = 1), plus the
observables built on it: transmission probability, total potential in the
barrier region, quantum potential from amplitude samples, probability current,
rolling (traversal) time, and the classical trajectory of the effective
classical system in exact and tanh-approximated form.

All operations are pure functions over the immutable solution record.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PhysicalParams, RectBarrier, derivative_5pt, wave_numbers
from .errors import DomainError, NodeSingularityError, PrecisionError

_REGION_I, _REGION_II, _REGION_III = 0, 1, 2
# |A|^2, cosh^2(beta a) and sinh(2 beta a) all grow like e^(2 beta a)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RectSolution:
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


@dataclass(frozen=True)
class PotentialProfile:
    """Sampled bare potential, total potential, and kinetic density E - V_tot."""

    xs: np.ndarray
    v: np.ndarray
    v_tot: np.ndarray
    e_minus_vtot: np.ndarray


class TransmissionProbability(NamedTuple):
    """Tunneling probability by two routes that must agree to 1e-10."""

    from_amplitudes: float
    closed_form: float


@dataclass(frozen=True)
class TanhBackground:
    """Tunneling trajectory approximated as x(t) = a (1 + tanh(rho t)).

    Ranges over (0, 2a), monotone increasing, with x(0) = a at the barrier
    exit where particle creation peaks.
    """

    amplitude_a: float
    rho: float

    def position(self, t):
        return self.amplitude_a * (1.0 + np.tanh(self.rho * np.asarray(t, dtype=float)))

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude_a * self.rho / np.cosh(self.rho * t) ** 2

    def time_at(self, x):
        """Inverse trajectory t(x) for x in (0, 2a)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or np.any(x >= 2.0 * self.amplitude_a):
            raise DomainError("tanh trajectory covers 0 < x < 2a only")
        return np.arctanh(x / self.amplitude_a - 1.0) / self.rho


@dataclass(frozen=True)
class ExactTrajectory:
    """Effective-classical trajectory x(t) through the barrier region.

    Sampled by integrating dx/dt = v(x) from x(0) = a/2; ``traversal_time``
    evaluates the quadrature of 1/v between interior points directly.
    """

    ts: np.ndarray
    xs: np.ndarray
    sol: RectSolution

    def position(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.xs)

    def traversal_time(self, x_from: float, x_to: float) -> float:
        from scipy.integrate import quad

        a = self.sol.barrier.width_a
        if not (0.0 <= x_from < x_to <= a):
            raise DomainError("traversal window must satisfy 0 <= x_from < x_to <= a")
        val, _ = quad(lambda x: 1.0 / _velocity(self.sol, x), x_from, x_to,
                      epsabs=0.0, epsrel=1e-12, limit=200)
        return val


def check_thickness(beta: float, width_a: float) -> None:
    """PrecisionError when 2 beta a takes e^(2 beta a) beyond double range."""
    if 2.0 * beta * width_a > _LOG_DOUBLE_MAX:
        raise PrecisionError(
            f"barrier too thick: 2 beta a = {2.0 * beta * width_a:.6g} puts e^(2 beta a) "
            f"beyond double range (e^{_LOG_DOUBLE_MAX:.6g})"
        )


def solve_rect(params: PhysicalParams, barrier: RectBarrier) -> RectSolution:
    """Solve the smoothness conditions at the barrier edges with C = 1.

    Raises PrecisionError when the barrier fails ``check_thickness``.
    """
    k, beta = wave_numbers(params, barrier)
    a = barrier.width_a
    check_thickness(beta, a)
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
    a = sol.barrier.width_a
    for x in (0.0, a):
        left = _phi_region(sol, x, _REGION_I if x == 0.0 else _REGION_II)
        right = _phi_region(sol, x, _REGION_II if x == 0.0 else _REGION_III)
        dleft = _dphi_region(sol, x, _REGION_I if x == 0.0 else _REGION_II)
        dright = _dphi_region(sol, x, _REGION_II if x == 0.0 else _REGION_III)
        if abs(left - right) > 1e-10 * abs(left):
            raise PrecisionError(f"wavefunction discontinuous at x = {x}")
        if abs(dleft - dright) > 1e-10 * abs(dleft):
            raise PrecisionError(f"wavefunction slope discontinuous at x = {x}")


def _phi_region(sol: RectSolution, x, region: int):
    x = np.asarray(x, dtype=float)
    if region == _REGION_I:
        return sol.A * np.exp(1j * sol.k * x) + sol.B * np.exp(-1j * sol.k * x)
    if region == _REGION_II:
        return sol.F * np.exp(-sol.beta * x) + sol.G * np.exp(sol.beta * x)
    return sol.C * np.exp(1j * sol.k * x)


def _dphi_region(sol: RectSolution, x, region: int):
    x = np.asarray(x, dtype=float)
    if region == _REGION_I:
        return 1j * sol.k * (sol.A * np.exp(1j * sol.k * x) - sol.B * np.exp(-1j * sol.k * x))
    if region == _REGION_II:
        return sol.beta * (-sol.F * np.exp(-sol.beta * x) + sol.G * np.exp(sol.beta * x))
    return 1j * sol.k * sol.C * np.exp(1j * sol.k * x)


def _region_of(sol: RectSolution, x: np.ndarray) -> np.ndarray:
    a = sol.barrier.width_a
    return np.where(x < 0.0, _REGION_I, np.where(x <= a, _REGION_II, _REGION_III))


def _piecewise(sol: RectSolution, x, region_form):
    """Evaluate ``region_form`` (``_phi_region`` or ``_dphi_region``) on the
    region each x falls in; scalar or array."""
    x = np.asarray(x, dtype=float)
    regions = _region_of(sol, x)
    out = np.empty(x.shape, dtype=complex)
    for region in (_REGION_I, _REGION_II, _REGION_III):
        mask = regions == region
        if np.any(mask):
            out[mask] = region_form(sol, x[mask], region)
    return out if out.shape else complex(out)


def wavefunction(sol: RectSolution, x):
    """Stationary wavefunction at x, scalar or array."""
    return _piecewise(sol, x, _phi_region)


def wavefunction_dx(sol: RectSolution, x):
    """Spatial derivative of the wavefunction at x."""
    return _piecewise(sol, x, _dphi_region)


def amplitude(sol: RectSolution, x):
    """Polar amplitude R(x) = |phi(x)|."""
    return np.abs(wavefunction(sol, x))


def transmission_probability(sol: RectSolution) -> TransmissionProbability:
    """P = |C/A|^2, cross-checked against the closed form."""
    k, beta, a = sol.k, sol.beta, sol.barrier.width_a
    p_amp = abs(sol.C) ** 2 / abs(sol.A) ** 2
    denom = (k**2 + beta**2) ** 2 * math.cosh(beta * a) ** 2 - (beta**2 - k**2) ** 2
    p_closed = 4.0 * k**2 * beta**2 / denom
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
        D = (k**2 + beta**2) * np.cosh(2.0 * beta * (sol.barrier.width_a - x)) + (beta**2 - k**2)
        val = (hbar**2 * beta**2 / (2.0 * M)) * 4.0 * k**2 * beta**2 / D**2
    return val if val.shape else float(val)


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


def probability_current(sol: RectSolution, x):
    """Probability density R^2 and flux W' R^2 / M of the stationary state."""
    phi = wavefunction(sol, x)
    dphi = wavefunction_dx(sol, x)
    density = np.abs(phi) ** 2
    flux = sol.params.hbar * np.imag(np.conj(phi) * dphi) / sol.params.mass_M
    return density, flux


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
    v = np.where((xs >= 0.0) & (xs <= a), sol.barrier.height_V0, 0.0)
    v_tot = np.empty_like(xs)
    inside = (xs >= 0.0) & (xs <= a)
    if np.any(inside):
        v_tot[inside] = total_potential_region2(sol, xs[inside])
    outside = ~inside
    if np.any(outside):
        phi = wavefunction(sol, xs[outside])
        dphi = wavefunction_dx(sol, xs[outside])
        # exact curvature: phi'' = -k^2 phi outside the barrier
        d2phi = -sol.k**2 * phi
        # |phi|^2 ~ |A|^2 may overflow near the double-range edge: V_Q turns
        # NaN there, and the CLI refuses to write it
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = np.abs(phi) ** 2
            r = np.sqrt(r2)
            dr = np.real(np.conj(phi) * dphi) / r
            d2r = (np.abs(dphi) ** 2 + np.real(np.conj(phi) * d2phi) - dr**2) / r
            v_q = -(hbar**2 / (2.0 * M)) * d2r / r
        v_tot[outside] = v_q
    return PotentialProfile(xs=xs, v=v, v_tot=v_tot, e_minus_vtot=E - v_tot)


def rolling_time(sol: RectSolution) -> float:
    """Closed-form traversal time of the barrier region."""
    k, beta, a = sol.k, sol.beta, sol.barrier.width_a
    hbar, M = sol.params.hbar, sol.params.mass_M
    return (M / (4.0 * hbar * k * beta**2)) * (
        (k**2 + beta**2) / beta * math.sinh(2.0 * beta * a)
        + 2.0 * a * (beta**2 - k**2)
    )


def _velocity(sol: RectSolution, x: float) -> float:
    ek = kinetic_density_region2(sol, x)
    return math.sqrt(2.0 * ek / sol.params.mass_M)


def classical_trajectory(sol: RectSolution, mode: str = "tanh"):
    """Trajectory of the effective classical particle through the barrier.

    ``tanh`` returns the a(1 + tanh(rho t)) record with rho = hbar k/(a M),
    anchored so x(0) = a at the barrier exit.  ``exact`` integrates
    dx/dt = v(x) from x(0) = a/2 until the trajectory leaves [0, a].
    """
    if mode == "tanh":
        rho = sol.params.hbar * sol.k / (sol.barrier.width_a * sol.params.mass_M)
        return TanhBackground(amplitude_a=sol.barrier.width_a, rho=rho)
    if mode != "exact":
        raise DomainError(f"unknown trajectory mode {mode!r}")
    from scipy.integrate import solve_ivp

    a = sol.barrier.width_a
    t_total = rolling_time(sol)

    def rhs(_t, y):
        return [_velocity(sol, min(max(y[0], 0.0), a))]

    def hit_right(_t, y):
        return y[0] - a

    def hit_left(_t, y):
        return y[0]

    hit_right.terminal = True
    hit_left.terminal = True
    fwd = solve_ivp(rhs, (0.0, 2.0 * t_total), [a / 2.0], events=hit_right,
                    rtol=1e-10, atol=1e-14, dense_output=False, max_step=t_total / 50.0)
    bwd = solve_ivp(lambda t, y: [-_velocity(sol, min(max(y[0], 0.0), a))],
                    (0.0, 2.0 * t_total), [a / 2.0], events=hit_left,
                    rtol=1e-10, atol=1e-14, dense_output=False, max_step=t_total / 50.0)
    ts = np.concatenate([-bwd.t[::-1], fwd.t[1:]])
    xs = np.concatenate([bwd.y[0][::-1], fwd.y[0][1:]])
    return ExactTrajectory(ts=ts, xs=xs, sol=sol)
