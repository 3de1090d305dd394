"""Parameter records, potential validation, wave numbers, and the grid
numerics (``grid``): the stencil, running integrals and the quadrature rule."""

import math
import warnings

import numpy as np
import pytest

from qtunnel import grid
from qtunnel.core import EnvMode, PhysicalParams, RectBarrier, wave_numbers
from qtunnel.errors import AboveBarrierError, DomainError
from qtunnel.grid import cumulative_simpson, derivative_5pt, legendre_nodes, legendre_sum


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


def test_derivative_5pt_exact_on_quartic():
    # every row, interior and one-sided edges, is exact up to degree 4
    h = 0.1
    x = 0.3 + h * np.arange(12)
    y = 1.5 - 2.0 * x + 0.7 * x**2 - 0.4 * x**3 + 0.25 * x**4
    d2y = 1.4 - 2.4 * x + 3.0 * x**2
    np.testing.assert_allclose(derivative_5pt(y, h), d2y, rtol=0.0, atol=1e-10)
    # along the last axis of a 2-D input, each row equals the 1-D call bit for bit
    rows = np.stack([y, 3.0 * y - 7.0 * x, np.sin(x) * 1e-3])
    for row, out in zip(rows, derivative_5pt(rows, h)):
        assert out.tobytes() == derivative_5pt(row, h).tobytes()


def test_legendre_table_is_leggauss():
    # the one quadrature rule is a table; it must keep leggauss's bits
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert [a.tobytes() for a in grid._LEGENDRE_24] == [nodes.tobytes(), weights.tobytes()]


@pytest.mark.parametrize("panels", [1, 3, 16])
def test_gauss_legendre_exact_to_degree_47_on_each_panel(panels):
    # a different degree-47 polynomial on each panel, in the panel's own
    # variable t in [-1, 1]: exact, so a node in the wrong panel shows.  The
    # second column is t^48, one degree past the rule
    lo, hi = -0.7, 2.3
    width = (hi - lo) / panels
    coeffs = np.random.default_rng(47).uniform(-1.0, 1.0, (panels, 48))

    def f(x):
        k = np.floor((x - lo) / width).astype(int)
        t = (x - lo - (k + 0.5) * width) / (0.5 * width)
        powers = t[:, None] ** np.arange(49)
        return np.stack(((coeffs[k] * powers[:, :48]).sum(axis=1), powers[:, 48]), axis=1)

    exact = 0.5 * width * (coeffs[:, ::2] * 2.0 / np.arange(1, 48, 2)).sum()
    got = legendre_sum(f(legendre_nodes(lo, hi, panels)), lo, hi)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(exact, rel=1e-13)
    assert got[1] < panels * width / 49.0 * (1.0 - 1e-13)  # short by 2.1e-13


def test_gauss_legendre_one_panel_keeps_the_rule_bits():
    # the wkb action tails' bits: half * (w @ f(lo + half * (u + 1)))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    for lo, hi in ((0.0, 1.0), (-3.25, 0.125), (1e-300, 3e-300)):
        half = 0.5 * (hi - lo)
        want = half * (weights @ np.exp(np.sin(lo + half * (nodes + 1.0))))
        got = legendre_sum(np.exp(np.sin(legendre_nodes(lo, hi))), lo, hi)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(3, 13))
def test_cumulative_simpson_exact_on_polynomials(n):
    # each interval integrates a parabola exactly; each pair of intervals is
    # Simpson's rule, which is exact for cubics too
    h = 0.3
    x = -0.7 + h * np.arange(n)
    quadratic = 1.5 * x - x**2 + 0.7 * x**3 / 3.0  # antiderivatives
    cubic = 0.4 * x - x**2 / 2.0 + 0.1 * x**3 - 0.3 * x**4
    np.testing.assert_allclose(cumulative_simpson(1.5 - 2.0 * x + 0.7 * x**2, h),
                               quadratic - quadratic[0], rtol=0.0, atol=1e-13)
    running = cumulative_simpson(0.4 - x + 0.3 * x**2 - 1.2 * x**3, h)
    np.testing.assert_allclose(running[::2], (cubic - cubic[0])[::2], rtol=0.0, atol=1e-13)
    # along the last axis of a 2-D input, each row equals the 1-D call bit for bit
    rows = np.stack([1.5 - 2.0 * x + 0.7 * x**2, 0.4 - x + 0.3 * x**2 - 1.2 * x**3, np.exp(x)])
    for row, out in zip(rows, cumulative_simpson(rows, h)):
        assert out.tobytes() == cumulative_simpson(row, h).tobytes()


@pytest.mark.parametrize("values", ["smooth", "magnitudes", "zeros"])
@pytest.mark.parametrize("n", [6, 7, 100, 101, 2000, 2001])
def test_cumulative_simpson_total_matches_scipy_on_uniform_grids(n, values):
    # scipy's composite Simpson, with Cartwright's correction for an odd
    # number of intervals, on a grid of exactly equal (dyadic) spacings; y
    # smooth, of mixed signs across magnitudes 1e-300..1e100, or made of
    # signed zeros and small integers
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    for _ in range(5):
        h = 2.0 ** -int(rng.integers(0, 10))
        x = h * (np.arange(n) - int(rng.integers(0, n)))
        if values == "magnitudes":
            y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 100.0, n)
        elif values == "zeros":
            y = rng.choice([0.0, -0.0, 1.0, -2.0], n)
        else:
            y = np.sin(3.0 * x) + 0.1 * x
        expected = integrate.simpson(y, x=x)
        total = cumulative_simpson(y, h)[-1]
        assert abs(total - expected) <= 1e-14 * np.sum(np.abs(y)) * h


def _exact_simpson_samples(n: int, values: str, seed: int):
    """(y, x, h) on which every Simpson sum is exact in floating point: h is
    12 * 2^-k and y is dyadic with few significant bits, so the package and
    scipy, whatever order they add in, must agree bit for bit.  y is smooth,
    of mixed signs across magnitudes 2^-976..2^315, or made of signed zeros
    and small integers."""
    rng = np.random.default_rng(seed)
    h = 12.0 * 2.0 ** -int(rng.integers(0, 10))
    x = h * (np.arange(n) - int(rng.integers(0, n)))
    signs = rng.choice([-1.0, 1.0], n)
    if values == "magnitudes":
        scale = 2.0 ** int(rng.integers(-960, 300))
        y = scale * signs * 2.0 ** rng.integers(-16, 17, n)
    elif values == "zeros":
        y = rng.choice([0.0, -0.0, 1.0, -2.0], n)
        # so the first running sum is -0.0
        y[:3] = (-0.0, -0.0, 0.0)
    else:
        y = np.round(1024.0 * (np.sin(3.0 * x / n) + 0.1 * x / n)) / 1024.0
    return y, x, h


@pytest.mark.parametrize("values", ["smooth", "magnitudes", "zeros"])
@pytest.mark.parametrize("uniform", [True])  # the rule takes one spacing h
@pytest.mark.parametrize("n", [6, 7, 100, 101, 2000, 2001])
def test_simpson_helpers_bitwise_equal_to_scipy(n, uniform, values):
    # the running integral is scipy's cumulative Simpson interval for
    # interval, and its last value scipy's composite Simpson with Cartwright's
    # last-interval correction
    integrate = pytest.importorskip("scipy.integrate")
    for seed in range(5):
        y, x, h = _exact_simpson_samples(n, values, seed)
        running = cumulative_simpson(y, h)
        # scipy's initial=0.0 is added to every sum, turning -0.0 into 0.0
        expected = integrate.cumulative_simpson(y, x=x)
        assert running[0] == 0.0 and running[1:].tobytes() == expected.tobytes()
        total = np.float64(integrate.simpson(y, x=x))
        assert running[-1:].tobytes() == total.tobytes()


def test_simpson_last_interval_correction_bitwise_equal_to_scipy():
    # y is zero but for y[-3], so the even-length correction's h1^3 term
    # shows in the result, against Simpson's weight on the same sample
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(3)
    y = np.zeros(6)
    for _ in range(400):
        h = 12.0 * 2.0 ** -int(rng.integers(-20, 20))
        y[-3] = rng.integers(-2**20, 2**20) * 2.0 ** -int(rng.integers(0, 40))
        x = h * np.arange(6)
        expected = integrate.simpson(y, x=x)
        total = cumulative_simpson(y, h)[-1]
        assert np.float64(total).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
def test_cumulative_simpson_on_a_grid_of_spacing_1e_300(n):
    # only h/12 scales the samples: nothing underflows or loses the last interval
    y = np.cos(np.linspace(0.0, 2.0, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fine = cumulative_simpson(y, 1e-300)
    assert np.all(np.isfinite(fine))
    np.testing.assert_allclose(fine / 1e-300, cumulative_simpson(y, 1.0), rtol=1e-14, atol=0.0)
