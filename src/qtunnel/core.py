"""Physical parameter records, potential abstractions, and shared validation.

All records are frozen dataclasses: immutable after construction and safe to
share between threads.  Defaults follow the hbar = M = 1 unit convention used
throughout; every operation still takes the parameters explicitly so
dimensional checks can vary them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AboveBarrierError, DomainError


def _require_positive(**values: float) -> None:
    """DomainError unless every value is finite and positive (NaN fails too)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """System-particle parameters: the unit anchor of every formula."""

    energy_E: float
    hbar: float = 1.0
    mass_M: float = 1.0

    def __post_init__(self):
        _require_positive(hbar=self.hbar, mass_M=self.mass_M, energy_E=self.energy_E)


@dataclass(frozen=True)
class RectBarrier:
    """Rectangular barrier of height V0 on 0 < x < a, zero elsewhere."""

    height_V0: float
    width_a: float

    def __post_init__(self):
        _require_positive(height_V0=self.height_V0, width_a=self.width_a)


class SmoothPotential:
    """A smooth barrier V(x) with a consistent derivative.

    Both callables must work elementwise on numpy arrays as well as on
    floats: the smooth-barrier code evaluates whole grids in one call and
    scalars only inside root finding and quadrature.  If no analytic
    derivative is supplied, a centered finite difference with step
    h = max(1e-6, 1e-6*|x|) is used; the step balances truncation and
    rounding at double precision.
    """

    _FD_SCALE = 1e-6

    def __init__(
        self,
        value: Callable[[float], float],
        derivative: Callable[[float], float] | None = None,
    ):
        self._value = value
        self._derivative = derivative

    def __call__(self, x):
        return self._value(x)

    def derivative(self, x):
        if self._derivative is not None:
            return self._derivative(x)
        return self._finite_difference(x)

    def _finite_difference(self, x):
        h = np.maximum(self._FD_SCALE, self._FD_SCALE * np.abs(x))
        return (self._value(x + h) - self._value(x - h)) / (2.0 * h)

    def check_derivative(self, xs, rel_tol: float = 1e-6) -> float:
        """Largest relative mismatch between the supplied derivative and a
        centered finite difference over the sample points ``xs``.

        Raises DomainError when the mismatch exceeds ``rel_tol``.  Scale for
        the relative comparison is the largest |V'| over the samples, so flat
        spots do not produce spurious failures.
        """
        if self._derivative is None:
            return 0.0
        xs = np.asarray(xs, dtype=float)
        supplied = self._derivative(xs)
        scale = float(np.max(np.abs(supplied))) or 1.0
        worst = float(np.max(np.abs(self._finite_difference(xs) - supplied))) / scale
        if worst > rel_tol:
            raise DomainError(
                f"supplied derivative inconsistent with value: relative "
                f"mismatch {worst:.3e} > {rel_tol:.3e}"
            )
        return worst


@dataclass(frozen=True)
class EnvMode:
    """One environment oscillator coupled to the system as c*x*y^2.

    omega_n(t)^2 = omega0^2 + 2*c*x(t)/m must stay positive over the
    trajectory; that is checked at evolution time, not here.
    """

    mass_m: float
    omega0: float
    coupling_c: float

    def __post_init__(self):
        _require_positive(mass_m=self.mass_m, omega0=self.omega0)
        if not math.isfinite(self.coupling_c):
            raise DomainError(f"coupling_c must be finite, got {self.coupling_c}")


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
    """First or second derivative (``order`` 1 or 2) of samples spaced by h.

    4th-order central stencil inside, one-sided closures of the same order at
    the first and last two points (5 samples for the first derivative, 6 for
    the second): exact for polynomials up to degree 4.  Needs at least 6
    samples.
    """
    central, edges = _STENCILS[order]
    denom = 12.0 * h if order == 1 else 12.0 * h * h
    mirror = (-1.0) ** order
    n = len(y)
    d = np.empty_like(y)
    d[2:-2] = _weighted_sum(central, [y[j:n - 4 + j] for j in range(5)]) / denom
    for i, edge in enumerate(edges):
        d[i] = _weighted_sum(edge, y) / denom
        d[-1 - i] = _weighted_sum([mirror * c for c in edge], y[::-1]) / denom
    return d


def _weighted_sum(coefficients, terms):
    """sum(c * t) left to right over the nonzero c (zip stops at the last c).
    c * t is exact for c = +-1, so this rounds like the stencil written out."""
    pairs = [(c, t) for c, t in zip(coefficients, terms) if c != 0.0]
    total = pairs[0][0] * pairs[0][1]
    for c, t in pairs[1:]:
        total = total + c * t
    return total


# Composite Simpson over 1-D samples y(x), x strictly increasing, at least 3
# samples.  Both follow scipy.integrate (simpson(y, x=x) and
# cumulative_simpson(y, x=x, initial=0.0)) operation for operation, with the
# unequal-interval formulas even on uniform grids, so results match scipy's
# to the last bit.


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Integral of y over x: Simpson on interval pairs; with an odd number of
    intervals, Cartwright's correction for the last one."""
    n = len(y)
    h = np.diff(x)
    stop = n - 3 if n % 2 == 0 else n - 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2 == 0:
        # 0-d arrays, not scalars: numpy rounds x**3 differently for the two
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of y from x[0], one value per sample (0 first).

    Each interval's integral comes from the parabola through it and its
    right neighbour (even intervals) or its left neighbour (odd intervals
    and the last one)."""
    h = np.diff(x)
    forward = _simpson_intervals(y, h)
    backward = _simpson_intervals(y[::-1], h[::-1])[::-1]
    pieces = np.empty(len(h))
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    out = np.empty(len(y))
    out[0] = 0.0
    out[1:] = np.cumsum(pieces) + 0.0  # as scipy adds initial=0.0: -0.0 -> 0.0
    return out


def _simpson_intervals(y, h):
    """Integral over each [x_i, x_i+1] of the parabola through x_i..x_i+2
    (Cartwright 2017, eq. 8)."""
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


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
