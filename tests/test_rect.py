"""Rectangular-barrier solution, observables, and trajectory."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from qtunnel.core import PhysicalParams, RectBarrier
from qtunnel.errors import AboveBarrierError, DomainError, NodeSingularityError, PrecisionError
from qtunnel import rect


@pytest.fixture
def default_solution():
    return rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 1.0))


def test_solve_rect_matching_coefficients(default_solution):
    # k = beta = 2, C = 1: F = e^{2i} e^{2} (2-2i)/4, G = e^{2i} e^{-2} (2+2i)/4
    sol = default_solution
    phase = cmath.exp(2j)
    assert sol.F == pytest.approx(phase * math.exp(2.0) * (2 - 2j) / 4.0, rel=1e-13)
    assert sol.G == pytest.approx(phase * math.exp(-2.0) * (2 + 2j) / 4.0, rel=1e-13)


def numpy_coefficients(k, beta, a):
    """A, B, F and G by the formulas on numpy scalars that ``solve_rect``
    replaced: np.exp, and numpy's complex quotients."""
    lam_p, lam_m = complex(beta, k), complex(beta, -k)
    with np.errstate(all="ignore"):
        phase = (1.0 + 0.0j) * np.exp(1j * k * a)
        F = phase * lam_m * math.exp(beta * a) / (2.0 * beta)
        G = phase * lam_p * math.exp(-beta * a) / (2.0 * beta)
        pre = -phase / (4j * k * beta)
        A = pre * (lam_m**2 * math.exp(beta * a) - lam_p**2 * math.exp(-beta * a))
        B = pre * (lam_m * lam_p * (math.exp(-beta * a) - math.exp(beta * a)))
    return A, B, F, G


def bits(z):
    return float(z.real).hex(), float(z.imag).hex()


@settings(max_examples=400, deadline=None)
@given(st.floats(-200.0, 200.0), st.floats(-12.0, 6.0), st.floats(-320.0, 3.0),
       st.floats(-150.0, 150.0))
@example(-100.0, 0.0, -300.0, 0.0)  # k a underflows to 0: the phase is 1, B's real part -0
@example(0.0, -15.0, -300.0, -308.0)  # 4 k beta overflows: a PrecisionError, as before
def test_coefficients_keep_the_bits_of_numpy_quotients(log_E, log_gap, log_a, log_hbar):
    # solve_rect runs on math and cmath; its A, B, F and G must keep every bit
    # of the numpy forms, signed zeros included
    E = 10.0**log_E
    params = PhysicalParams(energy_E=E, hbar=10.0**log_hbar)
    barrier = RectBarrier(E * (1.0 + 10.0**log_gap), 10.0**log_a)
    try:
        sol = rect.solve_rect(params, barrier)
    except PrecisionError:
        return
    want = numpy_coefficients(sol.k, sol.beta, barrier.width_a)
    assert [bits(z) for z in (sol.A, sol.B, sol.F, sol.G)] == [bits(z) for z in want]


def test_flux_conservation_sweep():
    rng = np.random.default_rng(31)
    for _ in range(40):
        v0 = rng.uniform(0.5, 20.0)
        e = rng.uniform(0.05, 0.95) * v0
        a = rng.uniform(0.1, 4.0)
        params = PhysicalParams(energy_E=e, hbar=rng.uniform(0.5, 2.0),
                                mass_M=rng.uniform(0.5, 2.0))
        sol = rect.solve_rect(params, RectBarrier(v0, a))
        lhs = abs(sol.A) ** 2
        rhs = abs(sol.B) ** 2 + abs(sol.C) ** 2
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_wavefunction_continuity(default_solution):
    sol = default_solution
    a = sol.barrier.width_a
    for x in (0.0, a):
        below, above = rect._piecewise(sol, np.array([x - 1e-12, x + 1e-12]))[0]
        assert abs(below - above) <= 1e-9 * abs(below)


def test_vanishing_barrier_transmits():
    sol = rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 1e-8))
    assert abs(sol.C / sol.A) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_above_barrier_rejected():
    with pytest.raises(AboveBarrierError):
        rect.solve_rect(PhysicalParams(energy_E=4.5), RectBarrier(4.0, 1.0))


def test_transmission_probability_default(default_solution):
    p = rect.transmission_probability(default_solution)
    expected = 1.0 / math.cosh(2.0) ** 2  # 0.0706508...
    assert expected == pytest.approx(0.0706508, abs=1e-7)
    assert p.closed_form == pytest.approx(expected, rel=1e-12)
    assert p.from_amplitudes == pytest.approx(p.closed_form, rel=1e-10)


def test_transmission_probability_thick_barrier():
    sol = rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 5.0))
    expected = 1.0 / math.cosh(10.0) ** 2  # 8.2446e-9
    assert expected == pytest.approx(8.2446e-9, rel=1e-4)
    assert rect.transmission_probability(sol).closed_form == pytest.approx(expected, rel=1e-12)


def _p_oracle(E, v0, a):
    # P = 4 k^2 beta^2/((k^2 + beta^2)^2 cosh^2(beta a) - (beta^2 - k^2)^2),
    # the difference taken at 50 digits, where it does not cancel
    with mp.workdps(50):
        k2, b2 = 2 * mp.mpf(E), 2 * (mp.mpf(v0) - mp.mpf(E))
        ch = mp.cosh(mp.sqrt(b2) * mp.mpf(a))
        return float(4 * k2 * b2 / ((k2 + b2) ** 2 * ch**2 - (b2 - k2) ** 2))


@pytest.mark.parametrize("E, a", [(1e-6, 1e-4), (1e-12, 1e-10), (1e-9, 1e-8)])
def test_transmission_probability_thin_low_energy_barrier(E, a):
    # P near 1, where the double-precision difference of the oracle's
    # denominator cancels; both routes must still agree with it
    p = rect.transmission_probability(
        rect.solve_rect(PhysicalParams(energy_E=E), RectBarrier(4.0, a)))
    oracle = _p_oracle(E, 4.0, a)
    assert p.closed_form == pytest.approx(oracle, rel=1e-10)
    assert p.from_amplitudes == pytest.approx(oracle, rel=1e-10)


def test_transmission_monotone_in_width_and_height():
    params = PhysicalParams(energy_E=2.0)
    ps = [rect.transmission_probability(
        rect.solve_rect(params, RectBarrier(4.0, a))).closed_form
        for a in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))
    ps = [rect.transmission_probability(
        rect.solve_rect(params, RectBarrier(v0, 1.0))).closed_form
        for v0 in (3.0, 4.0, 5.0, 6.0)]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


def test_total_potential_region2_values(default_solution):
    sol = default_solution
    # barrier exit: E - V_tot = E exactly, so V_tot(a) = 0
    assert rect.total_potential_region2(sol, 1.0) == pytest.approx(0.0, abs=1e-12)
    # barrier entrance: E - V_tot = 2*64/(8 cosh 4)^2
    expected = 2.0 * 64.0 / (8.0 * math.cosh(4.0)) ** 2
    assert expected == pytest.approx(0.0026819, abs=1e-7)
    assert rect.kinetic_density_region2(sol, 0.0) == pytest.approx(expected, rel=1e-12)


def test_kinetic_density_positive_and_domain(default_solution):
    xs = np.linspace(0.0, 1.0, 501)
    assert np.all(rect.kinetic_density_region2(default_solution, xs) > 0.0)
    with pytest.raises(DomainError):
        rect.total_potential_region2(default_solution, 1.5)


def barrier_amplitude(sol, xs):
    """|phi| = |F e^(-beta x) + G e^(beta x)| at points xs in [0, a]."""
    return np.abs(sol.F * np.exp(-sol.beta * xs) + sol.G * np.exp(sol.beta * xs))


def test_quantum_potential_plane_wave_is_zero():
    params = PhysicalParams(energy_E=2.0)
    r = np.full(64, 0.37)
    v_q = rect.quantum_potential(r, 0.1, params)
    assert np.max(np.abs(v_q)) <= 1e-12


def test_quantum_potential_matches_exit_value(default_solution):
    # V + V_Q must hit 0 at the barrier exit (continuity with the outside)
    sol = default_solution
    xs = np.linspace(0.9, 1.0, 101)
    r = barrier_amplitude(sol, xs)
    v_q = rect.quantum_potential(r, xs[1] - xs[0], sol.params, x0=xs[0])
    assert sol.barrier.height_V0 + v_q[-1] == pytest.approx(0.0, abs=1e-7)


def test_quantum_potential_fourth_order_convergence(default_solution):
    sol = default_solution

    def worst_error(n):
        xs = np.linspace(0.2, 0.8, n)
        r = barrier_amplitude(sol, xs)
        v_q = rect.quantum_potential(r, xs[1] - xs[0], sol.params, x0=xs[0])
        v_closed = rect.total_potential_region2(sol, xs) - sol.barrier.height_V0
        return np.max(np.abs(v_q - v_closed)[3:-3])

    e_coarse = worst_error(76)
    e_fine = worst_error(151)
    ratio = e_coarse / e_fine
    assert 10.0 < ratio < 25.0, f"expected ~16x error drop, got {ratio}"


def test_quantum_potential_node_error():
    params = PhysicalParams(energy_E=2.0)
    r = np.ones(32)
    r[10] = 0.0
    with pytest.raises(NodeSingularityError) as err:
        rect.quantum_potential(r, 0.1, params, x0=5.0)
    assert err.value.location == pytest.approx(6.0)
    with pytest.raises(DomainError, match="at least 6 samples"):
        rect.quantum_potential(r[:5], 0.1, params)


def test_rolling_time_closed_forms():
    params = PhysicalParams(energy_E=2.0)
    t1 = rect.rolling_time(rect.solve_rect(params, RectBarrier(4.0, 1.0)))
    assert math.sinh(4.0) / 8.0 == pytest.approx(3.4112397, abs=1e-7)
    assert t1 == pytest.approx(math.sinh(4.0) / 8.0, rel=1e-12)
    t5 = rect.rolling_time(rect.solve_rect(params, RectBarrier(4.0, 5.0)))
    assert t5 == pytest.approx(math.sinh(20.0) / 8.0, rel=1e-12)
    assert t5 == pytest.approx(3.03229e7, rel=1e-5)
    t0 = rect.rolling_time(rect.solve_rect(params, RectBarrier(4.0, 1e-7)))
    assert t0 < 1e-6


def test_rolling_time_matches_quadrature(default_solution):
    quad_route = float(oracle.traversal_time(2.0, 4.0, 1.0))
    assert rect.rolling_time(default_solution) == pytest.approx(quad_route, rel=1e-8)


def test_tanh_trajectory(default_solution):
    bg = rect.classical_trajectory(default_solution)
    assert bg.rho == pytest.approx(2.0, rel=1e-14)  # hbar k/(a M) with k = 2
    assert bg.position(0.0) == pytest.approx(1.0, rel=1e-14)
    assert bg.position(-50.0) < 1e-8
    assert bg.position(50.0) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("E, a", [(2.0, 1.0), (2.0, 20.0), (2.0, 100.0), (2.0, 170.0),
                                  (2.0, 177.0), (3.99, 1.0)])
def test_exact_trajectory_thick_barriers(E, a):
    # the closed form against the oracle's quadrature of 1/v, for 2 beta a up
    # to 708; E = 3.99 is a thin barrier (k >> beta, 2 beta a = 0.28), where
    # 1/v's D nearly cancels near x = a
    sol = rect.solve_rect(PhysicalParams(energy_E=E), RectBarrier(4.0, a))
    t_quad = float(oracle.traversal_time(E, 4.0, a))
    assert rect.rolling_time(sol) == pytest.approx(t_quad, rel=1e-8)


def test_potential_profile_regions(default_solution):
    xs = np.linspace(-2.0, 3.0, 1001)
    prof = rect.potential_profile(default_solution, xs)
    inside = (xs >= 0.0) & (xs <= 1.0)
    assert np.all(default_solution.params.energy_E - prof.v_tot[inside] > 0.0)
    # region III: constant amplitude, V_tot = 0
    right = xs > 1.0
    assert np.max(np.abs(prof.v_tot[right])) <= 1e-10
    # V_tot is continuous at both edges although V and V_Q jump separately
    prof_edges = rect.potential_profile(
        default_solution, np.array([-1e-7, 1e-7, 1.0 - 1e-7, 1.0 + 1e-7])
    )
    assert prof_edges.v_tot[0] == pytest.approx(prof_edges.v_tot[1], abs=1e-5)
    assert prof_edges.v_tot[2] == pytest.approx(prof_edges.v_tot[3], abs=1e-5)
