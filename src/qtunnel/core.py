"""Physical parameter records, potential abstractions, and shared validation.

The records are small ``__slots__`` classes that check their values on
construction; no code changes them afterwards, so they are safe to share
between threads.  Defaults follow the hbar = M = 1 unit convention used
throughout; every operation still takes the parameters explicitly so
dimensional checks can vary them.  The module imports no numpy: the grid
numerics live in ``grid``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import AboveBarrierError, DomainError

# rounding error (a cancellation bound times the double epsilon) that every
# kernel allows relative to a value: one unit of the 12th printed digit
DIGITS_TOL = 1e-11
LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # e^x is a finite double up to here
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

    def __init__(self, value: Callable, derivative: Callable):
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
