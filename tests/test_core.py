"""Parameter records, potential validation, and wave numbers."""

import math

import numpy as np
import pytest

from qtunnel.core import (
    EnvMode,
    PhysicalParams,
    RectBarrier,
    SmoothPotential,
    cumulative_simpson,
    derivative_5pt,
    simpson,
    wave_numbers,
)
from qtunnel.errors import AboveBarrierError, DomainError


def test_wave_numbers_symmetric_point():
    # E = 2, V0 = 4: k and beta coincide at 2
    k, beta = wave_numbers(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 1.0))
    assert k == pytest.approx(2.0, rel=1e-14)
    assert beta == pytest.approx(2.0, rel=1e-14)


def test_wave_numbers_e1_v4():
    k, beta = wave_numbers(PhysicalParams(energy_E=1.0), RectBarrier(4.0, 1.0))
    assert k == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert beta == pytest.approx(math.sqrt(6.0), rel=1e-14)


def test_wave_numbers_midpoint_symmetry():
    # E = V0/2 makes k = beta for any V0
    rng = np.random.default_rng(11)
    for _ in range(20):
        v0 = rng.uniform(0.1, 50.0)
        k, beta = wave_numbers(PhysicalParams(energy_E=v0 / 2), RectBarrier(v0, 1.0))
        assert k == pytest.approx(beta, rel=1e-13)


def test_wave_numbers_pythagorean_invariant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v0 = rng.uniform(0.5, 30.0)
        e = rng.uniform(0.01, 0.99) * v0
        hbar = rng.uniform(0.5, 2.0)
        mass = rng.uniform(0.5, 3.0)
        params = PhysicalParams(energy_E=e, hbar=hbar, mass_M=mass)
        k, beta = wave_numbers(params, RectBarrier(v0, 1.0))
        lhs = k**2 + beta**2
        rhs = 2.0 * mass * v0 / hbar**2
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_wave_numbers_rejects_above_barrier():
    with pytest.raises(AboveBarrierError):
        wave_numbers(PhysicalParams(energy_E=5.0), RectBarrier(4.0, 1.0))
    with pytest.raises(AboveBarrierError):
        wave_numbers(PhysicalParams(energy_E=4.0), RectBarrier(4.0, 1.0))


def test_invalid_records_raise():
    with pytest.raises(DomainError):
        PhysicalParams(energy_E=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(energy_E=1.0, hbar=0.0)
    with pytest.raises(DomainError):
        RectBarrier(height_V0=-4.0, width_a=1.0)
    with pytest.raises(DomainError):
        RectBarrier(height_V0=4.0, width_a=0.0)
    with pytest.raises(DomainError):
        EnvMode(mass_m=1.0, omega0=-1.0, coupling_c=0.1)


def test_smooth_potential_consistent_pair_passes():
    pot = SmoothPotential(lambda x: 1.0 - 8.0 * x * (x - 1.0), lambda x: 8.0 - 16.0 * x)
    worst = pot.check_derivative(np.linspace(-1.0, 2.0, 41), rel_tol=1e-6)
    assert worst <= 1e-6


def test_smooth_potential_inconsistent_pair_rejected():
    pot = SmoothPotential(lambda x: x**2, lambda x: 3.0 * x)
    with pytest.raises(DomainError):
        pot.check_derivative(np.linspace(0.5, 2.0, 11))


def test_smooth_potential_fd_fallback():
    pot = SmoothPotential(lambda x: math.sin(2.0 * x))
    for x in (-1.3, 0.0, 0.7, 4.0):
        assert pot.derivative(x) == pytest.approx(2.0 * math.cos(2.0 * x), abs=5e-9)


def test_derivative_5pt_exact_on_quartic():
    # every row, interior and one-sided edges, is exact up to degree 4
    h = 0.1
    x = 0.3 + h * np.arange(12)
    y = 1.5 - 2.0 * x + 0.7 * x**2 - 0.4 * x**3 + 0.25 * x**4
    dy = -2.0 + 1.4 * x - 1.2 * x**2 + 1.0 * x**3
    d2y = 1.4 - 2.4 * x + 3.0 * x**2
    np.testing.assert_allclose(derivative_5pt(y, h, order=1), dy, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(derivative_5pt(y, h, order=2), d2y, rtol=0.0, atol=1e-10)


def _simpson_samples(n: int, uniform: bool, values: str, seed: int):
    """(y, x): x increasing, uniform or not; y smooth, of mixed signs across
    magnitudes 1e-300..1e100, or made of signed zeros and small integers."""
    rng = np.random.default_rng(seed)
    if uniform:
        x = np.linspace(rng.uniform(-3.0, 0.0), rng.uniform(1.0, 40.0), n)
    else:
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - rng.uniform(0.0, 10.0)
    signs = rng.choice([-1.0, 1.0], n)
    if values == "magnitudes":
        y = signs * 10.0 ** rng.uniform(-300.0, 100.0, n)
    elif values == "zeros":
        y = rng.choice([0.0, -0.0, 1.0, -2.0], n)
        # the first running sum is -0.0 until 0.0 is added to it
        y[:3] = (-0.0, -0.0, 0.0)
    else:
        y = np.sin(3.0 * x) + 0.1 * x
    return y, x


@pytest.mark.parametrize("values", ["smooth", "magnitudes", "zeros"])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [6, 7, 100, 101, 2000, 2001])
def test_simpson_helpers_bitwise_equal_to_scipy(n, uniform, values):
    integrate = pytest.importorskip("scipy.integrate")
    for seed in range(5):
        y, x = _simpson_samples(n, uniform, values, seed)
        total = np.float64(simpson(y, x))
        assert total.tobytes() == np.float64(integrate.simpson(y, x=x)).tobytes()
        running = cumulative_simpson(y, x)
        expected = integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert running.tobytes() == expected.tobytes()


def test_simpson_last_interval_correction_bitwise_equal_to_scipy():
    # y is zero but for y[-3], so the even-length correction's h1^3 term
    # shows in the result; numpy rounds h^3 of a scalar and of a 0-d array
    # differently for a few percent of h
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(3)
    y = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    for _ in range(400):
        x = np.cumsum(rng.uniform(1e-3, 1.0, 6))
        expected = integrate.simpson(y, x=x)
        assert np.float64(simpson(y, x)).tobytes() == np.float64(expected).tobytes()
