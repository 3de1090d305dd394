"""Back-reaction factors, effective potential, and the modified rate."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qtunnel.core import DIGITS_TOL, EnvMode, PhysicalParams, RectBarrier
from qtunnel.errors import (AlignmentError, DomainError, OutOfRegimeError, PrecisionError,
                            ResolutionError)
from qtunnel import backreaction as br
from qtunnel import grid, modes, rect, specfun
from qtunnel.rect import TanhBackground

PARAMS = PhysicalParams(energy_E=2.0)
BARRIER = RectBarrier(height_V0=4.0, width_a=1.0)
FIG3_MODE = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.15)


@pytest.fixture(scope="module")
def fig3_profile():
    sol = rect.solve_rect(PARAMS, BARRIER)
    return br.rect_mode_backreaction(sol, FIG3_MODE)


def test_q_factors_vanish_when_decoupled():
    free = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.0)
    bg = TanhBackground(amplitude_a=1.0, rho=2.0)
    qf = br.q_factors([free], bg, np.linspace(0.01, 1.9, 11))
    assert np.max(np.abs(qf.q1)) <= 1e-12
    assert np.max(np.abs(qf.q2)) <= 1e-12


def test_q_factors_exactly_zero_when_decoupled_on_both_branches():
    # b = 0 makes 2F1 exactly 1, so d ln xi/dt = i omega0 and Q1 = Q1' = Q2 = 0
    # with no rounding, on both sides of the z = x/2a = 1/2 seam
    free = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.0)
    bg = TanhBackground(amplitude_a=1.0, rho=2.0)
    qf = br.q_factors([free], bg, np.linspace(0.005, 1.995, 31))
    assert not qf.trimmed
    assert np.all(qf.q1 == 0.0)
    assert np.all(qf.q2 == 0.0)
    assert np.all(qf.dq1 == 0.0)


def test_q_factors_trim_flag():
    bg = TanhBackground(amplitude_a=1.0, rho=2.0)
    xs = np.array([1e-4, 0.5, 1.0, 1.9995])  # edges stalled at both ends
    qf = br.q_factors([FIG3_MODE], bg, xs)
    assert qf.trimmed
    assert np.array_equal(qf.xs, [0.5, 1.0]) and qf.q1.shape == qf.q2.shape == (1, 2)
    qf2 = br.q_factors([FIG3_MODE], bg, [1e-3, 0.5, 1.999])
    assert not qf2.trimmed
    with pytest.raises(DomainError, match="entirely outside"):
        br.q_factors([FIG3_MODE], bg, [1e-4, 1.9995])


def test_q_factors_of_a_mode_sequence_equal_one_mode_calls():
    # one row per mode, each bit for bit the factors of a one-mode call
    bg = TanhBackground(amplitude_a=1.0, rho=2.0)
    xs = np.linspace(0.005, 1.995, 41)  # both 2F1 branches
    mode_set = [FIG3_MODE, EnvMode(mass_m=1.3, omega0=0.8, coupling_c=-0.1),
                EnvMode(mass_m=0.7, omega0=1.6, coupling_c=0.0), FIG3_MODE]
    qf = br.q_factors(mode_set, bg, xs)
    assert qf.q1.shape == qf.q2.shape == qf.dq1.shape == (len(mode_set), len(xs))
    for mode, q1, q2, dq1 in zip(mode_set, qf.q1, qf.q2, qf.dq1):
        single = br.q_factors([mode], bg, xs)
        assert single.q1.shape == (1, len(xs))
        assert q1.tobytes() == single.q1[0].tobytes()
        assert q2.tobytes() == single.q2[0].tobytes()
        assert dq1.tobytes() == single.dq1[0].tobytes()
        assert np.array_equal(qf.xs, single.xs) and qf.trimmed == single.trimmed


def test_fig3_profile_signs(fig3_profile):
    prof = fig3_profile
    assert np.all(prof.q1 < 0.0)
    bg = rect.classical_trajectory(rect.solve_rect(PARAMS, BARRIER))
    assert np.all(br.q_factors([FIG3_MODE], bg, prof.xs).dq1 < 0.0)
    assert np.all(prof.q2 >= 0.0)
    assert np.all(prof.v_eff >= prof.v)
    assert prof.delta_v_bar > 0.0


def test_fig3_profile_grid_convergence(fig3_profile):
    sol = rect.solve_rect(PARAMS, BARRIER)
    coarse = br.rect_mode_backreaction(sol, FIG3_MODE, num_points=1000)
    v_interp = np.interp(fig3_profile.xs, coarse.xs, coarse.v_eff)
    rel = np.abs(fig3_profile.v_eff - v_interp) / np.abs(fig3_profile.v_eff)
    assert rel.max() < 1e-5


def on_nodes(q1, q2, dq1, p0, lo=0.0, hi=1.0):
    """``at_nodes`` for effective_potential: one mode's Q1, Q2, Q1' and p0,
    each a function of x, at the Gauss-Legendre nodes over [lo, hi]."""
    def at_nodes(panels, rows):
        x = grid.legendre_nodes(lo, hi, panels)
        return q1(x)[None], q2(x)[None], dq1(x)[None], p0(x)

    return at_nodes


@pytest.mark.parametrize("a, mode", [
    (1.0, FIG3_MODE), (20.0, FIG3_MODE),
    (10.0, EnvMode(mass_m=1.0, omega0=0.05, coupling_c=0.15)),
    (15.0, EnvMode(mass_m=1.0, omega0=0.2, coupling_c=0.05)),
    (3.0, EnvMode(mass_m=0.1, omega0=0.02, coupling_c=0.5))])
def test_delta_v_bar_matches_simpson_on_64001_points(a, mode):
    # the Gauss-Legendre Delta V_bar, which no grid size changes, against
    # composite Simpson of the grid's Delta V on 64,001 points: measured
    # within 4.4e-13 (a = 20), and these modes need 2 to 128 panels
    sol = rect.solve_rect(PARAMS, RectBarrier(height_V0=4.0, width_a=a))
    prof = br.rect_mode_backreaction(sol, mode, num_points=64_001)
    simpson = grid.cumulative_simpson(prof.delta_v, prof.xs[1] - prof.xs[0])[-1] / a
    assert prof.delta_v_bar == pytest.approx(simpson, rel=1e-11, abs=0.0)


def test_effective_potential_decoupled_is_bare():
    xs = np.linspace(0.001, 1.0, 200)
    v = np.full_like(xs, 4.0)
    p0 = np.full_like(xs, 0.3)
    zero = np.zeros_like(xs)
    nodes = on_nodes(*[np.zeros_like] * 3, lambda x: np.full_like(x, 0.3), lo=0.001)
    prof = br.effective_potential(xs, v, p0, zero, zero, zero, PARAMS, 1.0, nodes)
    assert np.array_equal(prof.v_eff, v)
    assert prof.delta_v_bar == 0.0


def test_effective_potential_matches_closed_form_on_polynomials():
    # Delta V = hbar^2 Q1^2/(16 M) + hbar^2 Q2/(4 M) - (hbar/4M) int_0^x Q1' p0:
    # with linear Q1' and p0 the running Simpson sum is exact, so each term is
    # checked to rounding; Gauss-Legendre is exact on the quartic integrand of
    # the barrier average
    P = np.polynomial.Polynomial
    q1, q2, p0 = P([1.0, 1.0, -1.0]), P([0.0, 0.3]), P([2.0, 1.0])
    hbar, M = 0.7, 1.3
    params = PhysicalParams(energy_E=2.0, hbar=hbar, mass_M=M)
    delta_v = (hbar**2 * q1**2 / (16.0 * M) + hbar**2 * q2 / (4.0 * M)
               - hbar / (4.0 * M) * (q1.deriv() * p0).integ())
    xs = np.linspace(0.0, 1.0, 201)
    v = np.full_like(xs, 4.0)
    prof = br.effective_potential(xs, v, p0(xs), q1(xs), q2(xs), q1.deriv()(xs), params, 1.0,
                                  on_nodes(q1, q2, q1.deriv(), p0))
    np.testing.assert_allclose(prof.delta_v, delta_v(xs), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(prof.v_eff, v + delta_v(xs), rtol=1e-14)
    assert prof.delta_v_bar == pytest.approx(delta_v.integ()(1.0), rel=1e-14)


def test_effective_potential_input_validation():
    xs = np.linspace(0.0, 1.0, 50)
    v = np.zeros_like(xs)
    nodes = on_nodes(*[np.zeros_like] * 4)
    with pytest.raises(AlignmentError):
        br.effective_potential(xs, v[:-1], v, v, v, v, PARAMS, 1.0, nodes)
    with pytest.raises(AlignmentError):
        br.effective_potential(xs, v, v, v, v, v[:-1], PARAMS, 1.0, nodes)
    with pytest.raises(ResolutionError):
        br.effective_potential(xs[:4], *[v[:4]] * 5, PARAMS, 1.0, nodes)
    bad = np.concatenate([xs[:25], xs[25:] + 0.1])
    with pytest.raises(DomainError):
        br.effective_potential(bad, v, v, v, v, v, PARAMS, 1.0, nodes)


def test_effective_potential_resolution_error():
    # grid-scale oscillation in the grid's Q1', against Q1' = 0 at the nodes
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 1.0, 64)
    noise = rng.normal(0.0, 1.0, xs.size)
    v = np.zeros_like(xs)
    nodes = on_nodes(*[np.zeros_like] * 3, np.ones_like)
    with pytest.raises(ResolutionError, match="off by"):
        br.effective_potential(xs, v, np.ones_like(xs), v, v, noise, PARAMS, 1.0, nodes)


def test_barrier_integral_stops_at_128_panels():
    # Q1' as noise at every node: p and 2p panels never agree, and the
    # panels double from 1 to 128 before ResolutionError
    rng = np.random.default_rng(5)
    panels = []

    def noisy(x):
        panels.append(x.size // 24)
        return rng.normal(0.0, 1.0, x.size)

    xs = np.linspace(0.0, 1.0, 64)
    zero = np.zeros_like(xs)
    with pytest.raises(ResolutionError, match="mode 1 is not converged on 128 "):
        br.effective_potential(xs, zero, zero + 1.0, zero, zero, zero, PARAMS, 1.0,
                               on_nodes(np.zeros_like, np.zeros_like, noisy, np.ones_like))
    assert panels == [2**j for j in range(8)]


def test_resolution_error_counts_the_end_piece_of_an_even_grid():
    # Delta V = hbar^2 Q2/(4 M) with Q2 cubic: composite Simpson is exact, so
    # only the one-interval end piece of an even number of points errs, by
    # h^4/4 against Q2's integral 0.26, 1.5e-3 of it on 6 points, which the
    # exact Gauss-Legendre value measures
    def cubic(x):
        return x**3 + 0.01

    def profile(n):
        xs = np.linspace(0.0, 1.0, n)
        zero = np.zeros_like(xs)
        return br.effective_potential(xs, zero, zero + 1.0, zero, cubic(xs), zero, PARAMS, 1.0,
                                      on_nodes(np.zeros_like, cubic, np.zeros_like, np.ones_like))

    with pytest.raises(ResolutionError):
        profile(6)
    assert profile(7).delta_v_bar == pytest.approx(
        PARAMS.hbar**2 * 0.26 / (4.0 * PARAMS.mass_M), rel=1e-12)


def test_modified_probability_zero_shift():
    sol = rect.solve_rect(PARAMS, BARRIER)
    p0 = rect.transmission_probability(sol).closed_form
    assert br.modified_probability(sol, 0.0) == p0


def test_modified_probability_symmetric_point():
    # k = beta makes the bracket vanish; pure exponential suppression
    sol = rect.solve_rect(PARAMS, BARRIER)
    p0 = rect.transmission_probability(sol).closed_form
    ratio = br.modified_probability(sol, 0.01) / p0
    assert ratio == pytest.approx(math.exp(-0.01), rel=1e-12)
    assert ratio == pytest.approx(0.99005, abs=1e-5)


def test_modified_probability_suppresses(fig3_profile):
    sol = rect.solve_rect(PARAMS, BARRIER)
    p0 = rect.transmission_probability(sol).closed_form
    assert br.modified_probability(sol, fig3_profile.delta_v_bar) < p0


def test_modified_probability_out_of_regime():
    sol = rect.solve_rect(PARAMS, BARRIER)
    with pytest.raises(OutOfRegimeError) as err:
        br.modified_probability(sol, 1.5)
    assert err.value.exact_value is not None
    assert err.value.exact_value > 0.0


@pytest.mark.parametrize("energy", [2.0, 1.0])  # k = beta and k != beta
def test_modified_probability_first_order_match(energy):
    # against the exact re-solve at V0 + dV the deviation is quadratic in dV
    # (thick barrier: the asymptotic linear coefficient is then exact, and
    # for k != beta the bracket correction carries the first order)
    sol = rect.solve_rect(PhysicalParams(energy_E=energy), RectBarrier(4.0, 5.0))
    devs = []
    for dv in (1e-3, 1e-4):
        approx = br.modified_probability(sol, dv)
        exact = br._resolve_probability(sol, dv)
        devs.append(abs(approx / exact - 1.0))
    ratio = devs[0] / devs[1]
    assert 50.0 < ratio < 150.0, f"expected ~100x shrink, got {ratio}"


def test_superpose_identity(fig3_profile):
    # one mode: the driver returns that mode's effective potential unchanged,
    # with the Gauss-Legendre nodes in q_factors calls of their own
    sol = rect.solve_rect(PARAMS, BARRIER)
    bg = rect.classical_trajectory(sol)
    xs = fig3_profile.xs
    qf = br.q_factors([FIG3_MODE], bg, xs)

    def at_nodes(panels, rows):
        x = grid.legendre_nodes(xs[0], xs[-1], panels)
        nodes = br.q_factors([FIG3_MODE], bg, x)
        return nodes.q1, nodes.q2, nodes.dq1, np.sqrt(2.0 * rect.kinetic_density_region2(sol, x))

    single = br.effective_potential(xs, fig3_profile.v, fig3_profile.p0, qf.q1, qf.q2, qf.dq1,
                                    PARAMS, 1.0, at_nodes)
    for field in ("q1", "q2", "v_eff", "delta_v"):
        assert np.array_equal(getattr(fig3_profile, field), getattr(single, field))
    assert fig3_profile.delta_v_bar == single.delta_v_bar


def test_superpose_two_identical_modes(fig3_profile):
    combined = br.rect_mode_backreaction(rect.solve_rect(PARAMS, BARRIER), FIG3_MODE, FIG3_MODE)
    assert np.array_equal(combined.q1, 2.0 * fig3_profile.q1)
    assert np.array_equal(combined.delta_v, 2.0 * fig3_profile.delta_v)
    assert combined.delta_v_bar == 2.0 * fig3_profile.delta_v_bar
    # Hamiltonian-level quadratic block for two identical modes (in units of
    # hbar^2/2M): (3/16) sum q^2 + (1/16) cross = (3/16) 2q^2 + (1/16) 2q^2
    # = q^2/2.  Completing the square removes (sum q)^2/16 in the same units,
    # leaving the per-mode sum of squares 2 * 2 q_n^2/32 * (2M/hbar^2 scale)
    # = q^2/4: the cross terms cancel, which is why Delta V adds linearly.
    q = 0.37
    block = (3.0 / 16.0) * 2 * q**2 + (1.0 / 16.0) * 2 * q**2
    assert block == pytest.approx(q**2 / 2.0, rel=1e-14)
    assert block - (2 * q) ** 2 / 16.0 == pytest.approx(q**2 / 4.0, rel=1e-14)
    assert block - (2 * q) ** 2 / 16.0 == pytest.approx(
        2.0 * (2.0 * q**2) * 2.0 / 32.0, rel=1e-14
    )


def keeps_12_digits(res):
    """The 2F1 verdict that modes.log_derivative applies, per (mode, point)
    pair of a kernel result: eps times both bounds at most DIGITS_TOL."""
    return res.bounds.max(axis=0) * np.finfo(float).eps <= DIGITS_TOL


@pytest.mark.parametrize("count", [1, 2, 4])
def test_blocks_match_one_call_over_the_grid(monkeypatch, count):
    # 20,000 points and the 72 Gauss-Legendre nodes of 1 and 2 panels are 3, 5
    # and 10 blocks of 8,192 // count: the blocks give the bits, and the series
    # lengths, of one 2F1 call over them, which a block size of their pairs
    # makes one block.  These modes need no more panels
    mode_set = [FIG3_MODE, EnvMode(mass_m=1.3, omega0=0.8, coupling_c=-0.1),
                EnvMode(mass_m=0.7, omega0=1.6, coupling_c=0.05),
                EnvMode(mass_m=2.0, omega0=0.7, coupling_c=0.2)][:count]
    terms, verdicts = [], []
    kernel = specfun.hyp2f1_ex

    def counted(*args, **kwargs):
        res = kernel(*args, **kwargs)
        terms.append(res.terms)
        verdicts.append(keeps_12_digits(res).all())
        return res

    monkeypatch.setattr(specfun, "hyp2f1_ex", counted)
    sol = rect.solve_rect(PARAMS, BARRIER)
    blocked = br.rect_mode_backreaction(sol, *mode_set, num_points=20_000)
    assert len(terms) == -(-20_072 // (modes._BLOCK_PAIRS // count))
    # log_derivative raised on no block, and no block's verdict fails
    assert all(verdicts)
    blocked_terms, terms[:] = sum(terms), []
    monkeypatch.setattr(modes, "_BLOCK_PAIRS", 20_072 * count)
    whole = br.rect_mode_backreaction(sol, *mode_set, num_points=20_000)
    assert terms == [blocked_terms]
    for field in ("xs", "q1", "q2", "delta_v", "v_eff"):
        assert getattr(blocked, field).tobytes() == getattr(whole, field).tobytes()
    assert blocked.delta_v_bar == whole.delta_v_bar


@pytest.mark.parametrize("a, first, worst", [
    (20, None, 6.0e-12), (21, 0.959, 1.6e-11), (25, 0.682, 1.3e-9), (30, 0.468, 8.3e-7),
    (40, 0.253, 6.5), (60, 0.106, 6.1e2), (80, 0.058, 5.0e3), (100, 0.036, 8.5e2)])
def test_2f1_verdict_on_the_fig3_grid(monkeypatch, a, first, worst):
    # where the 2F1 guard trips: on the 2,000-point fig3 grid at width a, in
    # one kernel call, the first point whose verdict fails, as x/a = 2z, and
    # the worst eps x bound (README's list of the working range's edges).  A
    # block of 2,000 pairs is the grid's one call: the nodes come after it
    calls = []
    kernel = specfun.hyp2f1_ex

    def recorded(*args):
        calls.append((args[3], kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(specfun, "hyp2f1_ex", recorded)
    monkeypatch.setattr(modes, "_BLOCK_PAIRS", 2000)
    sol = rect.solve_rect(PARAMS, RectBarrier(height_V0=4.0, width_a=float(a)))
    with pytest.raises(PrecisionError) if first else contextlib.nullcontext():
        br.rect_mode_backreaction(sol, FIG3_MODE)
    z, res = calls[0]
    assert z.size == 2000
    ok = keeps_12_digits(res)[0]
    assert res.bounds.max() * np.finfo(float).eps == pytest.approx(worst, rel=0.05)
    assert (None if ok.all() else round(2.0 * z[np.argmin(ok)], 3)) == first
    if first is None:
        return
    # in blocks of 500 points, log_derivative raises in the block of that
    # first point, naming the block's worst pair, and in no block before it
    calls.clear()
    monkeypatch.setattr(modes, "_BLOCK_PAIRS", 500)
    with pytest.raises(PrecisionError) as err:
        br.rect_mode_backreaction(sol, FIG3_MODE)
    *before, (z, res) = calls
    assert all(keeps_12_digits(r).all() for _, r in before)
    assert 2.0 * z[np.argmin(keeps_12_digits(res)[0])] == pytest.approx(first, abs=5e-4)
    j = np.unravel_index(np.argmax(res.bounds), res.bounds.shape)[2]
    assert str(err.value).endswith(f", z = {z[j]}; fewer than 12 significant digits hold")


def test_superpose_no_modes_rejected():
    with pytest.raises(DomainError):
        br.rect_mode_backreaction(rect.solve_rect(PARAMS, BARRIER))


@st.composite
def _mode_sets(draw):
    """2-16 modes (the mode-sweep range) whose omega^2 stays positive over a
    barrier of width 1."""
    out = []
    for _ in range(draw(st.integers(2, 16))):
        m, omega0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        c = draw(st.floats(0.01, 0.3)) * draw(st.sampled_from([-1.0, 1.0]))
        # a negative coupling is capped rather than filtered, so that sets of
        # 16 modes are not rejected
        c = max(c, -0.99 * omega0**2 * m / 4.0)
        out.append(EnvMode(mass_m=m, omega0=omega0, coupling_c=c))
    return out


@settings(max_examples=30, deadline=None)
@given(_mode_sets(), st.integers(64, 400))
# eight equal modes: a (mode, point) array whose rows are strided would be
# summed pairwise instead of in mode order, which this case tells apart
@example([FIG3_MODE] * 8, 64)
def test_superposition_of_modes(mode_set, num_points):
    # the driver adds the single-mode profiles in mode order, bit for bit
    sol = rect.solve_rect(PARAMS, BARRIER)
    total = br.rect_mode_backreaction(sol, *mode_set, num_points=num_points)
    singles = [br.rect_mode_backreaction(sol, mode, num_points=num_points) for mode in mode_set]
    for field in ("q1", "q2", "delta_v"):
        expected = getattr(singles[0], field)
        for single in singles[1:]:
            expected = expected + getattr(single, field)
        assert np.array_equal(getattr(total, field), expected)
    assert np.array_equal(total.v_eff, total.v + total.delta_v)
    assert total.delta_v_bar == sum(single.delta_v_bar for single in singles)


def test_hamiltonian_trajectory_equivalence():
    """Motion under the effective Hamiltonian obeys M x'' + V_eff' = 0.

    H = p^2/2M + V + (hbar Q1/4M)(p - p0) + 3 hbar^2 Q1^2/(32M) + hbar^2 Q2/(4M)
    with constant p0; completing the square turns the 3/32 coefficient into
    the 2/32 one of the potential-form equation of motion.  The residual is
    evaluated algebraically along an integrated trajectory.
    """
    hbar = M = 1.0
    p0 = 0.7

    def q1(x):
        return -0.1 * math.exp(-(x**2))

    def dq1(x):
        return 0.2 * x * math.exp(-(x**2))

    def q2(x):
        return 0.02 * math.exp(-2.0 * x**2)

    def dq2(x):
        return -0.08 * x * math.exp(-2.0 * x**2)

    def v(x):
        return 0.5 * x**2

    def dv(x):
        return x

    def rhs(_t, y):
        x, p = y
        dx = p / M + hbar * q1(x) / (4 * M)
        dp = -(
            dv(x)
            + hbar * dq1(x) * (p - p0) / (4 * M)
            + 3 * hbar**2 * q1(x) * dq1(x) / (16 * M)
            + hbar**2 * dq2(x) / (4 * M)
        )
        return [dx, dp]

    res = solve_ivp(rhs, (0.0, 20.0), [1.2, 0.0], rtol=1e-11, atol=1e-13,
                    t_eval=np.linspace(0.0, 20.0, 201))
    assert res.success
    worst = 0.0
    for x, p in zip(res.y[0], res.y[1]):
        dxdt, dpdt = rhs(0.0, [x, p])
        m_xddot = dpdt + (hbar / 4.0) * dq1(x) * dxdt
        v_eff_prime = (
            dv(x)
            + 4.0 * hbar**2 * q1(x) * dq1(x) / (32.0 * M)
            + hbar**2 * dq2(x) / (4.0 * M)
            - hbar * dq1(x) * p0 / (4.0 * M)
        )
        worst = max(worst, abs(m_xddot + v_eff_prime))
    assert worst <= 1e-6
