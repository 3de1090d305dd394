"""Exact solution of the rectangular-barrier tunneling problem.

Stationary scattering state with unit transmitted amplitude (C = 1), plus the
observables built on it: transmission probability, total potential in the
barrier region, quantum potential from amplitude samples, rolling (traversal)
time in closed form, and the tanh-approximated trajectory x(t) of the
effective classical particle (no inverse map: back-reaction code works on
positions).

All operations are pure functions over the immutable solution record.  The
solution, P and the rolling time run on ``math`` and ``cmath``; only the
functions on grids import numpy, so ``rect`` and ``sweep`` runs never load it.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .core import LOG_DOUBLE_MAX, PhysicalParams, RectBarrier, wave_numbers
from .errors import DomainError, NodeSingularityError, PrecisionError

if TYPE_CHECKING:
    import numpy as np

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
    barrier: RectBarrier
    params: PhysicalParams


class PotentialProfile(NamedTuple):
    """Sampled bare potential and total potential V_tot = V + V_Q; the
    kinetic density is E - v_tot."""

    xs: np.ndarray
    v: np.ndarray
    v_tot: np.ndarray


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
        import numpy as np

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
    phase = C * cmath.exp(1j * k * a)
    # products with reciprocals, as numpy divides by a real or imaginary number:
    # A, B, F and G keep numpy's bits, signed zeros too.  pre = -phase/(4i k beta)
    F = phase * lam_m * math.exp(beta * a) * (1.0 / (2.0 * beta))
    G = phase * lam_p * math.exp(-beta * a) * (1.0 / (2.0 * beta))
    s = 1.0 / (4.0 * k * beta)
    pre = complex(-phase.imag * s, phase.real * s)
    # lam * lam: a complex ** 2 raises OverflowError where one part overflows
    A = pre * (lam_m * lam_m * math.exp(beta * a) - lam_p * lam_p * math.exp(-beta * a))
    B = pre * (lam_m * lam_p * (math.exp(-beta * a) - math.exp(beta * a)))
    sol = RectSolution(A=A, B=B, C=C, F=F, G=G, k=k, beta=beta,
                       barrier=barrier, params=params)
    _check_solution(sol)
    return sol


def _check_solution(sol: RectSolution) -> None:
    if not all(cmath.isfinite(c) for c in (sol.A, sol.B, sol.F, sol.G)):
        raise PrecisionError("scattering coefficients overflow double range")
    # |A|^2 may overflow to inf near the double-range edge (a float's ** 2 would
    # raise), making the defect NaN; the test is written so that NaN fails
    a2, b2, c2 = (abs(z) * abs(z) for z in (sol.A, sol.B, sol.C))
    flux_defect = abs(a2 - b2 - c2)
    if not flux_defect <= 1e-12 * a2:
        raise PrecisionError(f"flux conservation violated by {flux_defect:.3e}")
    for x, region in ((0.0, _REGION_I), (sol.barrier.width_a, _REGION_II)):
        left, dleft = _region_wave(sol, x, region, cmath.exp)
        right, dright = _region_wave(sol, x, region + 1, cmath.exp)
        if abs(left - right) > 1e-10 * abs(left):
            raise PrecisionError(f"wavefunction discontinuous at x = {x}")
        if abs(dleft - dright) > 1e-10 * abs(dleft):
            raise PrecisionError(f"wavefunction slope discontinuous at x = {x}")


def _region_wave(sol: RectSolution, x, region: int, exp):
    """phi and phi' at points x that all lie in ``region``: a float x with
    ``cmath.exp``, a float array with ``np.exp``."""
    if region == _REGION_I:
        e, e_back = exp(1j * sol.k * x), exp(-1j * sol.k * x)
        return sol.A * e + sol.B * e_back, 1j * sol.k * (sol.A * e - sol.B * e_back)
    if region == _REGION_II:
        e_down, e_up = exp(-sol.beta * x), exp(sol.beta * x)
        return sol.F * e_down + sol.G * e_up, sol.beta * (-sol.F * e_down + sol.G * e_up)
    e = exp(1j * sol.k * x)
    return sol.C * e, 1j * sol.k * sol.C * e


def _piecewise(sol: RectSolution, x: np.ndarray):
    """phi and phi' at the points of the float array x, each on its region."""
    import numpy as np

    regions = np.where(x < 0.0, _REGION_I,
                       np.where(x <= sol.barrier.width_a, _REGION_II, _REGION_III))
    out = np.empty((2,) + x.shape, dtype=complex)
    for region in (_REGION_I, _REGION_II, _REGION_III):
        mask = regions == region
        if np.any(mask):
            out[:, mask] = _region_wave(sol, x[mask], region, np.exp)
    return out[0], out[1]


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
    import numpy as np

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

    R'' by ``grid.derivative_5pt``.  The samples must be nodeless (R > 0
    throughout).
    """
    import numpy as np

    from .grid import derivative_5pt

    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size < 6:
        raise DomainError("quantum_potential needs a 1-D array of at least 6 samples")
    if np.any(r <= 0.0):
        i = int(np.argmin(r))
        raise NodeSingularityError(
            f"wavefunction node in evaluation window near x = {x0 + i * dx}",
            location=x0 + i * dx,
        )
    d2 = derivative_5pt(r, dx)
    return -(params.hbar**2 / (2.0 * params.mass_M)) * d2 / r


def potential_profile(sol: RectSolution, xs: np.ndarray) -> PotentialProfile:
    """V and V_tot on a grid spanning any of the three regions.

    Inside the barrier the closed form is used; outside, V_Q comes from the
    analytic amplitude curvature of the interference pattern (the wavefunction
    is known in closed form, so no finite differences are needed).
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    a = sol.barrier.width_a
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
    return PotentialProfile(xs=xs, v=v, v_tot=v_tot)


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
