"""Physical parameter records, potential abstractions, and shared validation.

The records are small ``__slots__`` classes that check their values on
construction; no code changes them afterwards, so they are safe to share
between threads.  Defaults follow the hbar = M = 1 unit convention used
throughout; every operation still takes the parameters explicitly so
dimensional checks can vary them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AboveBarrierError, DomainError

# rounding error (a cancellation bound times the double epsilon) that every
# kernel allows relative to a value: one unit of the 12th printed digit
DIGITS_TOL = 1e-11
LOG_DOUBLE_MAX = math.log(np.finfo(float).max)  # e^x is a finite double up to here
VACUUM_SATURATION = 12.0  # |rho t0| for vacuum starts: tanh saturated to ~1e-10


def _require_positive(**values: float) -> None:
    """DomainError unless every value is finite and positive (NaN fails too)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")


class PhysicalParams:
    """System-particle parameters: the unit anchor of every formula."""

    __slots__ = ("energy_E", "hbar", "mass_M")

    def __init__(self, energy_E: float, hbar: float = 1.0, mass_M: float = 1.0):
        self.energy_E, self.hbar, self.mass_M = energy_E, hbar, mass_M
        _require_positive(hbar=hbar, mass_M=mass_M, energy_E=energy_E)


class RectBarrier:
    """Rectangular barrier of height V0 on 0 < x < a, zero elsewhere."""

    __slots__ = ("height_V0", "width_a")

    def __init__(self, height_V0: float, width_a: float):
        self.height_V0, self.width_a = height_V0, width_a
        _require_positive(height_V0=height_V0, width_a=width_a)


class SmoothPotential:
    """A smooth barrier V(x) with its derivative V'(x).

    Both callables must work elementwise on 1-d float numpy arrays, the
    only input the smooth-barrier code passes: whole grids, quadrature nodes
    and the scan nodes of its root and window searches.
    """

    def __init__(self, value: Callable[[np.ndarray], np.ndarray],
                 derivative: Callable[[np.ndarray], np.ndarray]):
        self._value = value
        self._derivative = derivative

    def __call__(self, x):
        return self._value(x)

    def derivative(self, x):
        return self._derivative(x)


class EnvMode:
    """One environment oscillator coupled to the system as c*x*y^2.

    omega_n(t)^2 = omega0^2 + 2*c*x(t)/m must stay positive over the
    trajectory; that is checked at evolution time, not here.
    """

    __slots__ = ("mass_m", "omega0", "coupling_c")

    def __init__(self, mass_m: float, omega0: float, coupling_c: float):
        self.mass_m, self.omega0, self.coupling_c = mass_m, omega0, coupling_c
        # omega0^2 enters every frequency; it must not leave double range
        _require_positive(mass_m=mass_m, omega0=omega0, omega0_squared=omega0 * omega0)
        if not math.isfinite(coupling_c):
            raise DomainError(f"coupling_c must be finite, got {coupling_c}")


# 5-point stencils over uniform samples, as coefficients of y[i-2..i+2] with
# their common denominator 12 h^order; the first two points use one-sided
# closures and the last two their mirror images (sign (-1)^order).
_STENCILS = {
    1: ((1.0, -8.0, 0.0, 8.0, -1.0),
        ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0))),
    2: ((-1.0, 16.0, -30.0, 16.0, -1.0),
        ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0), (10.0, -15.0, -4.0, 14.0, -6.0, 1.0))),
}


def derivative_5pt(y: np.ndarray, h: float, order: int) -> np.ndarray:
    """First or second derivative (``order`` 1 or 2) of samples spaced by h
    along the last axis.

    4th-order central stencil inside, one-sided closures of the same order at
    the first and last two points (5 samples for the first derivative, 6 for
    the second): exact up to degree 4.  Needs at least 6 samples.
    """
    central, edges = _STENCILS[order]
    denom = 12.0 * h if order == 1 else 12.0 * h * h
    mirror = (-1.0) ** order
    n = y.shape[-1]
    out = np.empty_like(y)
    # sample axis first, so that y[j] is sample j of every row
    y, d = np.moveaxis(y, -1, 0), np.moveaxis(out, -1, 0)
    d[2:-2] = _weighted_sum(central, [y[j:n - 4 + j] for j in range(5)]) / denom
    for i, edge in enumerate(edges):
        d[i] = _weighted_sum(edge, y) / denom
        d[-1 - i] = _weighted_sum([mirror * c for c in edge], y[::-1]) / denom
    return out


def _weighted_sum(coefficients, terms):
    """sum(c * t) left to right over the nonzero c (zip stops at the last c).
    c * t is exact for c = +-1, so this rounds like the stencil written out."""
    pairs = [(c, t) for c, t in zip(coefficients, terms) if c != 0.0]
    total = pairs[0][0] * pairs[0][1]
    for c, t in pairs[1:]:
        total = total + c * t
    return total


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples y spaced by h along the last axis, one
    value per sample (0 first).

    Each even interval is h(5 y_i + 8 y_i+1 - y_i+2)/12, the integral of the
    parabola through it and its right neighbour; each odd interval, and the
    last one, uses the mirror image through its left neighbour.  Each pair of
    intervals is Simpson's rule, so the last value is composite Simpson with
    Cartwright's correction for an odd last interval.  Needs at least 3
    samples.
    """
    n = y.shape[-1]
    left, mid, right = y[..., 0:n - 2:2], y[..., 1:n - 1:2], y[..., 2::2]
    out = np.empty(y.shape)
    out[..., 0] = 0.0
    # the intervals' pieces, then their running sum, in place
    pieces = out[..., 1:]
    pieces[..., :-1:2] = 5.0 * left + 8.0 * mid - right
    pieces[..., 1::2] = 5.0 * right + 8.0 * mid - left
    pieces[..., -1] = 5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]
    pieces *= h / 12.0
    np.cumsum(pieces, axis=-1, out=pieces)
    return out


# the 12 positive nodes of the 24-node Gauss-Legendre rule on [-1, 1] and their
# weights, to the bit of leggauss(24), which needs LAPACK; mirrored below
_HALF_24 = np.array((
    (0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
     0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
     0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
    (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
     0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
     0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869),
))
_LEGENDRE_24 = np.hstack((_HALF_24[:, ::-1] * [[-1.0], [1.0]], _HALF_24))


def gauss_legendre(f: Callable, lo: float, hi: float, panels: int = 1) -> float | np.ndarray:
    """Integral of f over [lo, hi] by the 24-node Gauss-Legendre rule (DLMF
    3.5(v)) on ``panels`` equal panels, exact up to degree 47 on each.

    f is called once, on the flat array of all nodes, and returns a value or
    a row of integrands' values per node.  The panels are summed node by node
    before the weights apply: one panel is half * (w @ f(lo + half * (u + 1))).
    """
    u, w = _LEGENDRE_24
    half = 0.5 * (hi - lo) / panels
    # row i holds node i of every panel
    y = f((lo + half * (u[:, None] + (2.0 * np.arange(panels) + 1.0))).ravel())
    return half * (w @ y.reshape(u.size, panels, *y.shape[1:]).sum(axis=1))


def wave_numbers(params: PhysicalParams, barrier: RectBarrier) -> tuple[float, float]:
    """Propagating and evanescent wave numbers (k, beta) for E below V0.

    k = sqrt(2 M E)/hbar, beta = sqrt(2 M (V0 - E))/hbar.
    """
    E, V0 = params.energy_E, barrier.height_V0
    if E >= V0:
        raise AboveBarrierError(
            f"E = {E} >= V0 = {V0}: tunneling formulas require E < V0"
        )
    k = math.sqrt(2.0 * params.mass_M * E) / params.hbar
    beta = math.sqrt(2.0 * params.mass_M * (V0 - E)) / params.hbar
    return k, beta
