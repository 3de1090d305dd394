"""Gaussian environment modes over the tanh tunneling background.

Two independent routes to the same state:

* direct ODE integration of the width/phase pair (alpha, beta) with
      d alpha/dt = -alpha beta / m
      d beta/dt  = alpha^4/m - beta^2/m - m omega(t)^2
* the exact mode function xi(t) solving  xi'' + omega(t)^2 xi = 0  in terms
  of the Gauss hypergeometric function, vacuum-matched at early times.

They are connected by  d ln(xi)/dt = (beta + i alpha^2)/m, so the vacuum
(alpha^2 = m omega0, beta = 0) corresponds to xi ~ (2 omega0)^(-1/2)
exp(i omega0 t).  The Wronskian xi xi*' - xi* xi' is conserved and equals -i
for that normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import specfun
from .core import EnvMode
from .errors import (
    DomainError,
    InconsistentBranchError,
    StiffnessError,
    TachyonicModeError,
)
from .rect import TanhBackground

_VACUUM_SATURATION = 12.0  # |rho t0| for vacuum starts: tanh saturated to ~1e-10


@dataclass(frozen=True)
class GaussianModeState:
    """Width/phase pair of one mode: wavefunction ~ exp[(-alpha^2 + i beta) y^2 / 2 hbar].

    Fields are scalars at one instant, or arrays over a time grid.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise DomainError(f"alpha must be positive, got {np.min(self.alpha)}")


@dataclass(frozen=True)
class ModeFunction:
    """Complex mode function and its time derivative on a time grid.

    Fields are arrays of the grid's shape, or scalars at one instant.
    ``dln`` is d ln xi/dt as the analytic route evaluates it; when it is
    not given, ``log_derivative`` divides xi_dot by xi.
    """

    xi: complex | np.ndarray
    xi_dot: complex | np.ndarray
    t: float | np.ndarray
    dln: complex | np.ndarray | None = None

    def log_derivative(self) -> complex | np.ndarray:
        if self.dln is not None:
            return self.dln
        if np.any(np.asarray(self.xi) == 0):
            raise DomainError("xi = 0: log-derivative undefined")
        return self.xi_dot / self.xi

    def wronskian(self) -> complex:
        return self.xi * self.xi_dot.conjugate() - self.xi.conjugate() * self.xi_dot


@dataclass(frozen=True)
class GaussianTrajectory:
    """Sampled (alpha, beta) evolution of one mode."""

    ts: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


def _sigmoid_pair(u):
    """(z, 1-z, e) with z = (1 + tanh u)/2, both to full relative precision,
    and e = exp(-2|u|)."""
    e = np.exp(-2.0 * np.abs(u))
    small, large = e / (1.0 + e), 1.0 / (1.0 + e)
    pos = u >= 0.0
    return np.where(pos, large, small), np.where(pos, small, large), e


def omega_t(mode: EnvMode, bg: TanhBackground, t) -> float | np.ndarray:
    """Instantaneous frequency omega(t) = sqrt(omega0^2 + 2 c x(t)/m)."""
    x = bg.position(t)
    om2 = mode.omega0**2 + 2.0 * mode.coupling_c * x / mode.mass_m
    if np.any(np.asarray(om2) <= 0.0):
        raise TachyonicModeError(
            f"omega^2 = {np.min(om2)} <= 0 on the trajectory: coupling too negative"
        )
    return np.sqrt(om2) if np.ndim(t) else float(math.sqrt(om2))


def omega_asymptotics(mode: EnvMode, bg: TanhBackground) -> tuple[float, float]:
    """(omega0, omega_infinity) frequencies before and after the traversal."""
    om_inf2 = mode.omega0**2 + 4.0 * mode.coupling_c * bg.amplitude_a / mode.mass_m
    if om_inf2 <= 0.0:
        raise TachyonicModeError(f"late-time omega^2 = {om_inf2} <= 0")
    return mode.omega0, math.sqrt(om_inf2)


def omega_pm(mode: EnvMode, bg: TanhBackground) -> tuple[float, float]:
    """Half sum/difference (omega_plus, omega_minus) of the asymptotic frequencies."""
    om0, om_inf = omega_asymptotics(mode, bg)
    return 0.5 * (om_inf + om0), 0.5 * (om_inf - om0)


def vacuum_state(mode: EnvMode, t: float) -> GaussianModeState:
    """Ground state of the decoupled oscillator: alpha^2 = m omega0, beta = 0."""
    return GaussianModeState(alpha=math.sqrt(mode.mass_m * mode.omega0), beta=0.0, t=t)


def vacuum_start_time(bg: TanhBackground) -> float:
    """Earliest time needed for a vacuum start (tanh saturated to ~1e-10)."""
    return -_VACUUM_SATURATION / bg.rho


def evolve_gaussian(
    mode: EnvMode,
    bg: TanhBackground,
    state0: GaussianModeState,
    t0: float,
    t1: float,
    t_eval=None,
    vacuum_start: bool = False,
) -> GaussianTrajectory:
    """Integrate the width/phase equations with adaptive RK45 at rtol 1e-10.

    With ``vacuum_start`` the caller asserts state0 is the decoupled vacuum;
    t0 must then lie deep enough in the past that the background has not yet
    moved (|tanh(rho t0)| > 1 - 1e-8).
    """
    if t1 <= t0:
        raise DomainError("t1 must exceed t0")
    if vacuum_start and 1.0 + math.tanh(bg.rho * t0) > 1e-8:
        # 1 + tanh(u) <= 1e-8 requires u <= -0.5 ln(2e8) ~ -9.6
        raise DomainError(
            f"vacuum start needs rho*t0 <= -9.6, got {bg.rho * t0:.3g}"
        )
    # omega^2 is monotone in x, so checking the trajectory range suffices
    omega_asymptotics(mode, bg)
    omega_t(mode, bg, t0)
    m = mode.mass_m

    def rhs(t, y):
        al, be = y
        x = bg.position(t)
        om2 = mode.omega0**2 + 2.0 * mode.coupling_c * x / m
        return [-al * be / m, al**4 / m - be**2 / m - m * om2]

    res = solve_ivp(
        rhs,
        (t0, t1),
        [state0.alpha, state0.beta],
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
        dense_output=False,
    )
    if not res.success:
        raise StiffnessError(
            f"Gaussian evolution failed ({res.message}); use the mode-function route"
        )
    if np.min(res.y[0]) <= 1e-100:
        raise StiffnessError("alpha underflow during evolution; use the mode-function route")
    return GaussianTrajectory(ts=res.t, alpha=res.y[0], beta=res.y[1])


def xi_analytic(mode: EnvMode, bg: TanhBackground, t) -> ModeFunction:
    """Exact vacuum-matched mode function over the tanh background.

    xi(t) = (2 omega0)^(-1/2) exp[i omega_+ t + i omega_- ln(2 cosh rho t)/rho]
            * 2F1(1 - i w_-/rho, -i w_-/rho; 1 + i w_0/rho; z),
    z = (1 + tanh rho t)/2.  ``t`` is one instant or a whole grid, evaluated
    by one 2F1 kernel call.  d ln xi/dt follows from the chain rule through
    z with dF/dz from the same kernel; the identity
    d^2 ln xi/dt^2 = -omega^2 - (d ln xi/dt)^2  is available to callers
    through ``log_derivative_2``.
    """
    rho = bg.rho
    om0 = mode.omega0
    om_p, om_m = omega_pm(mode, bg)
    t = np.asarray(t, dtype=float)
    u = rho * t
    z, w, e = _sigmoid_pair(u)
    if np.any(w <= 0.0):
        raise DomainError(f"trajectory argument saturated at t = {np.max(t)}")
    a = 1.0 - 1j * om_m / rho
    b = -1j * om_m / rho
    c = 1.0 + 1j * om0 / rho
    res = specfun.hyp2f1_ex(a, b, c, z, one_minus_z=w)
    F, dF = res.value, res.dz
    # ln(2 cosh u) evaluated without overflow
    log2cosh = np.abs(u) + np.log1p(e)
    phase = 1j * (om_p * t + om_m * log2cosh / rho)
    xi = F * np.exp(phase) / math.sqrt(2.0 * om0)
    dln = 1j * om0 + 2j * om_m * z + 2.0 * rho * z * w * dF / F
    return ModeFunction(xi=xi[()], xi_dot=(xi * dln)[()], t=t[()], dln=dln[()])


def xi_trajectory(mode: EnvMode, bg: TanhBackground, ts) -> ModeFunction:
    """Mode function sampled along a time grid (always array fields)."""
    return xi_analytic(mode, bg, np.atleast_1d(np.asarray(ts, dtype=float)))


def log_derivative_2(mode: EnvMode, bg: TanhBackground, mf: ModeFunction):
    """d^2 ln xi / dt^2 from the oscillator equation, avoiding second derivatives."""
    om = omega_t(mode, bg, mf.t)
    dln = mf.log_derivative()
    return -(om * om) - dln * dln


def state_from_xi(mode: EnvMode, mf: ModeFunction) -> GaussianModeState:
    """Map the mode function to (alpha, beta): d ln xi/dt = (beta + i alpha^2)/m."""
    dln = mf.log_derivative()
    a2 = mode.mass_m * np.imag(dln)
    bad = np.asarray(a2 <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise InconsistentBranchError(
            f"Im d ln xi/dt = {np.ravel(dln)[i].imag} <= 0 at t = {np.ravel(mf.t)[i]}: "
            "not a normalizable Gaussian"
        )
    return GaussianModeState(alpha=np.sqrt(a2), beta=mode.mass_m * np.real(dln), t=mf.t)
