"""Gaussian mode evolution: ODE route, analytic route, and their agreement."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qtunnel.core import EnvMode
from qtunnel.errors import (
    DomainError,
    InconsistentBranchError,
    PrecisionError,
    StiffnessError,
    TachyonicModeError,
)
from qtunnel import modes, specfun
from qtunnel.rect import TanhBackground

FIG3_MODE = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.15)
FIG3_BG = TanhBackground(amplitude_a=1.0, rho=2.0)


def omega(mode, bg, t):
    """omega(t) = sqrt(omega0^2 + 2 c a (1 + tanh rho t)/m), written out here
    so that the checks below do not lean on the library's own omega^2."""
    x = bg.amplitude_a * (1.0 + np.tanh(bg.rho * np.asarray(t, dtype=float)))
    return np.sqrt(mode.omega0**2 + 2.0 * mode.coupling_c * x / mode.mass_m)


def wronskian(mf):
    """xi conj(xi') - conj(xi) xi' from the mode function's fields."""
    return mf.xi * mf.xi_dot.conjugate() - mf.xi.conjugate() * mf.xi_dot


def test_omega_asymptotics():
    om0, om_inf = modes.omega_asymptotics(FIG3_MODE, FIG3_BG)
    assert om0 == 1.0
    assert om_inf == pytest.approx(math.sqrt(1.6), rel=1e-12)
    assert om_inf == pytest.approx(1.264911, abs=1e-6)
    # late and early times approach the asymptotes
    late, early = omega(FIG3_MODE, FIG3_BG, [40.0, -40.0])
    assert late == pytest.approx(om_inf, rel=1e-10)
    assert early == pytest.approx(om0, rel=1e-10)


def test_omega_decoupled_and_midpoint():
    free = EnvMode(mass_m=1.0, omega0=1.3, coupling_c=0.0)
    assert omega(free, FIG3_BG, [-3.0, 0.0, 2.0]) == pytest.approx(1.3, rel=1e-14)
    # x(0) = a, so omega(0)^2 = omega0^2 + 2 c a/m
    assert omega(FIG3_MODE, FIG3_BG, 0.0) == pytest.approx(
        math.sqrt(1.0 + 2 * 0.15), rel=1e-12
    )


def test_omega_tachyonic_error():
    bad = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=-1.0)
    with pytest.raises(TachyonicModeError):
        modes.omega_asymptotics(bad, FIG3_BG)


@pytest.mark.parametrize("mode, value", [
    (EnvMode(mass_m=1.0, omega0=1.0, coupling_c=1e308), "inf"),
    (EnvMode(mass_m=5e-324, omega0=1.0, coupling_c=0.15), "inf"),
    (EnvMode(mass_m=1.0, omega0=1.0, coupling_c=-1e308), "-inf"),
])
def test_omega_infinity_squared_past_double_range_is_a_domain_error(mode, value):
    # not tachyonic: omega_infinity^2 = omega0^2 + 4 c a/m is no double at all
    with pytest.raises(DomainError) as err:
        modes.omega_asymptotics(mode, FIG3_BG)
    assert type(err.value) is DomainError
    assert str(err.value) == f"late-time omega^2 = {value} is not a finite double"


@pytest.mark.parametrize("n_modes, n_points", [
    (1, 20_000), (3, 10_000),  # not a multiple of the step
    (modes._BLOCK_PAIRS + 5, 7),  # more modes than a block has pairs: step 1
    (1, 1), (4, 1),  # a one-point grid
])
def test_grid_blocks_cover_the_grid_once_in_order(n_modes, n_points):
    step = max(modes._BLOCK_PAIRS // n_modes, 1)
    blocks = list(modes.grid_blocks(n_modes, n_points))
    assert [i for blk in blocks for i in range(n_points)[blk]] == list(range(n_points))
    assert all(0 < blk.stop - blk.start <= step for blk in blocks)
    assert len(blocks) == -(-n_points // step)


def test_omega_pm_values():
    om_p, om_m = modes.omega_pm(FIG3_MODE, FIG3_BG)
    assert om_p == pytest.approx(1.132456, abs=1e-6)
    assert om_m == pytest.approx(0.132456, abs=1e-6)
    assert om_p - om_m == pytest.approx(1.0, rel=1e-12)


def test_decoupled_vacuum_is_static():
    free = EnvMode(mass_m=1.5, omega0=0.8, coupling_c=0.0)
    ts = np.linspace(-3.0, 5.0, 21)
    traj = modes.evolve_gaussian(free, FIG3_BG, ts)
    assert np.max(np.abs(traj.alpha**2 - 1.5 * 0.8)) <= 1e-9
    assert np.max(np.abs(traj.beta)) <= 1e-9


def test_log_derivative_raises_where_the_series_cancels():
    # omega0/rho = 20 and omega_-/rho = 40, the set of a barrier of width 40:
    # the terms of dF/dz reach ~1e16 |dF/dz| at z = 1/2
    mode, bg = EnvMode(mass_m=1.0, omega0=20.0, coupling_c=2400.0), TanhBackground(1.0, 1.0)
    z = np.array([0.1, 0.5])
    with pytest.raises(PrecisionError, match=r"^2F1 series cancels: sum \|t_n\| is \S+ times "
                       r"\|dF/dz\| at \(a, b, c\) = \(\(1-40j\), \S*40j\)?, \(1\+20j\)\), "
                       r"z = 0\.5; fewer than 12 significant digits hold$"):
        modes.log_derivative([mode], bg, z, 1.0 - z)


@pytest.mark.parametrize("a, z", [(300.0, 0.7), (5000.0, 0.9)])
def test_log_derivative_raises_where_the_2f1_overflows(monkeypatch, a, z):
    # no mode set was seen to overflow before its series' coefficients do
    # (ConvergenceError), so the kernel evaluates the set (a, a; 1.5) of
    # test_hyp2f1_overflow_bounds_are_inf in place of the mode's own; the
    # text names the pair by the set its caller passed
    kernel = specfun.hyp2f1_ex
    monkeypatch.setattr(specfun, "hyp2f1_ex", lambda *args: kernel([a], [a], [1.5], *args[3:]))
    zs = np.array([0.0, z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=r"^2F1 overflows at \(a, b, c\) = \(\(1-\S+j\), "
                           rf".*, z = {z}: F or dF/dz is not a finite double$"):
            modes.log_derivative([FIG3_MODE], FIG3_BG, zs, 1.0 - zs)


def test_xi_decoupled_mode():
    free = EnvMode(mass_m=1.0, omega0=0.7, coupling_c=0.0)
    mf = modes.xi_analytic([free], FIG3_BG, [-4.0, 0.0, 3.0])
    assert np.abs(mf.xi) == pytest.approx((2 * 0.7) ** -0.5, rel=1e-12)
    state = modes.state_from_xi(free, mf)
    assert state.alpha**2 == pytest.approx(0.7, rel=1e-12)
    assert state.beta == pytest.approx(0.0, abs=1e-12)


def test_xi_trajectory_matches_pointwise_calls():
    # one kernel call over the grid, both 2F1 branches (z crosses 1/2 at t = 0),
    # against one-point grids
    ts = np.linspace(-4.0, 4.0, 17)
    grid = modes.xi_analytic([FIG3_MODE], FIG3_BG, ts)
    states = modes.state_from_xi(FIG3_MODE, grid)
    for i, t in enumerate(ts):
        mf = modes.xi_analytic([FIG3_MODE], FIG3_BG, [t])
        assert grid.xi[0, i] == pytest.approx(mf.xi[0, 0], rel=1e-14)
        assert grid.xi_dot[0, i] == pytest.approx(mf.xi_dot[0, 0], rel=1e-14)
        st = modes.state_from_xi(FIG3_MODE, mf)
        assert states.alpha[0, i] == pytest.approx(st.alpha[0, 0], rel=1e-14)
        assert states.beta[0, i] == pytest.approx(st.beta[0, 0], rel=1e-12, abs=1e-15)


def test_xi_satisfies_oscillator_equation():
    # second time derivative by finite differences of the analytic xi
    h = 1e-4
    for t in (-2.0, -0.5, 0.0, 0.4, 1.5):
        xi_m, xi_0, xi_p = modes.xi_analytic([FIG3_MODE], FIG3_BG, [t - h, t, t + h]).xi[0]
        d2 = (xi_p - 2 * xi_0 + xi_m) / h**2
        om = omega(FIG3_MODE, FIG3_BG, t)
        assert abs(d2 + om**2 * xi_0) <= 1e-7


def test_xi_derivative_consistent():
    h = 1e-6
    for t in (-1.2, 0.3, 2.2):
        mf = modes.xi_analytic([FIG3_MODE], FIG3_BG, [t - h, t, t + h])
        xi_m, _, xi_p = mf.xi[0]
        fd = (xi_p - xi_m) / (2 * h)
        assert mf.xi_dot[0, 1] == pytest.approx(fd, rel=1e-8)


def test_wronskian_conserved():
    ts = np.linspace(-10.0 / FIG3_BG.rho, 10.0 / FIG3_BG.rho, 101)
    drift = np.max(np.abs(wronskian(modes.xi_analytic([FIG3_MODE], FIG3_BG, ts)) + 1j))
    assert drift <= 1e-8


def mode_function(xi, xi_dot):
    return modes.ModeFunction(xi=xi, xi_dot=xi_dot, t=0.0, dln=xi_dot / xi)


def test_state_from_xi_vacuum_and_scale_invariance():
    mf = mode_function((2 * 1.3) ** -0.5, 1j * 1.3 * (2 * 1.3) ** -0.5)
    mode = EnvMode(mass_m=2.0, omega0=1.3, coupling_c=0.0)
    st = modes.state_from_xi(mode, mf)
    assert st.alpha**2 == pytest.approx(2.0 * 1.3, rel=1e-12)
    assert st.beta == pytest.approx(0.0, abs=1e-12)
    scale = 2.0 - 3.0j
    mf2 = mode_function(scale * mf.xi, scale * mf.xi_dot)
    st2 = modes.state_from_xi(mode, mf2)
    assert st2.alpha == pytest.approx(st.alpha, rel=1e-12)
    assert st2.beta == pytest.approx(st.beta, abs=1e-12)


def test_state_from_xi_inconsistent_branch():
    with pytest.raises(InconsistentBranchError):
        modes.state_from_xi(FIG3_MODE, mode_function(1.0, 1.0))


def test_state_from_xi_overflow_names_the_first_time():
    # alpha^2 = m Im(d ln xi/dt) passes the largest double at t = 1, where
    # Im(d ln xi/dt) = 2: PrecisionError, with no warning, ahead of the
    # alpha^2 <= 0 at t = 2
    heavy = EnvMode(mass_m=1.7976931348623157e308, omega0=1.0, coupling_c=0.0)
    dln = np.array([[1j, 2j, -1j]])
    mf = modes.ModeFunction(xi=np.ones_like(dln), xi_dot=dln, t=np.arange(3.0), dln=dln)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError,
                           match=r"^alpha\^2 or beta is not a finite double at t = 1\.0$"):
            modes.state_from_xi(heavy, mf)


def test_xi_mapping_reproduces_width_phase_equations():
    # alpha' = -alpha beta/m and beta' = alpha^4/m - beta^2/m - m omega^2,
    # checked by finite differences of the analytic-route states
    h = 1e-5
    m = FIG3_MODE.mass_m
    for t in (-1.0, 0.0, 0.8):
        st = modes.state_from_xi(
            FIG3_MODE, modes.xi_analytic([FIG3_MODE], FIG3_BG, [t - h, t, t + h]))
        (alpha_m, alpha_0, alpha_p), (beta_m, beta_0, beta_p) = st.alpha[0], st.beta[0]
        alpha_dot = (alpha_p - alpha_m) / (2 * h)
        beta_dot = (beta_p - beta_m) / (2 * h)
        om = omega(FIG3_MODE, FIG3_BG, t)
        assert alpha_dot == pytest.approx(-alpha_0 * beta_0 / m, abs=1e-8)
        assert beta_dot == pytest.approx(
            alpha_0**4 / m - beta_0**2 / m - m * om**2, abs=1e-7
        )


def test_ode_and_analytic_routes_agree():
    rho = FIG3_BG.rho
    ts = np.linspace(-10.0 / rho, 10.0 / rho, 101)
    traj = modes.evolve_gaussian(FIG3_MODE, FIG3_BG, ts)
    worst_a2, worst_b = route_deviations(FIG3_MODE, FIG3_BG, traj)
    assert worst_a2 <= 1e-6
    assert worst_b <= 1e-6


def route_deviations(mode, bg, traj):
    """Worst relative alpha^2 and beta deviations of a trajectory from the
    2F1 route; beta crosses zero, so it is scaled by max(|beta|, m omega0)."""
    st_xi = modes.state_from_xi(mode, modes.xi_analytic([mode], bg, traj.t))
    a2, beta = st_xi.alpha[0] ** 2, st_xi.beta[0]
    scale = np.maximum(np.abs(beta), mode.mass_m * mode.omega0)
    return (np.max(np.abs(traj.alpha**2 - a2) / a2),
            np.max(np.abs(traj.beta - beta) / scale))


# c is drawn through the frequency jump omega_inf^2/omega0^2 - 1 = 4 c a/(m omega0^2)
# (a = 1), which stays above -0.6 so that no draw comes near a tachyonic mode
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=st.floats(0.5, 2.0), omega0=st.floats(0.5, 2.0), jump=st.floats(-0.6, 1.5),
       log10_rho=st.floats(math.log10(0.02), math.log10(50.0)))
@example(m=1.0, omega0=1.0, jump=0.6, log10_rho=math.log10(0.02))  # adiabatic end
@example(m=1.0, omega0=1.0, jump=0.6, log10_rho=math.log10(50.0))  # sudden end
def test_routes_agree_across_modes(m, omega0, jump, log10_rho):
    mode = EnvMode(mass_m=m, omega0=omega0, coupling_c=jump * m * omega0**2 / 4.0)
    bg = TanhBackground(amplitude_a=1.0, rho=10.0**log10_rho)
    ts = np.linspace(-10.0, 10.0, 41) / bg.rho
    traj = modes.evolve_gaussian(mode, bg, ts)
    worst_a2, worst_b = route_deviations(mode, bg, traj)
    assert worst_a2 <= 1e-6
    assert worst_b <= 1e-6
    drift = np.max(np.abs(wronskian(modes.xi_analytic([mode], bg, ts)) + 1j))
    assert drift <= 1e-8


def test_evolve_on_a_grid_that_starts_after_the_vacuum_start():
    # the run starts at vacuum_start_time(bg) = -6 and reaches ts[0] = -0.2
    # through one lead-in interval
    ts = np.linspace(-0.2, 3.0, 33)
    traj = modes.evolve_gaussian(FIG3_MODE, FIG3_BG, ts)
    assert np.array_equal(traj.t, ts)
    worst_a2, worst_b = route_deviations(FIG3_MODE, FIG3_BG, traj)
    assert worst_a2 <= 1e-9
    assert worst_b <= 1e-9


def test_evolve_on_a_grid_that_starts_before_the_vacuum_start():
    # ts[0] = -9 < -12/rho = -6: the run starts at ts[0] itself, so the first
    # sample is the vacuum as it was set, with no step taken
    mode = EnvMode(mass_m=1.5, omega0=0.8, coupling_c=0.15)
    ts = np.linspace(-9.0, 3.0, 49)
    traj = modes.evolve_gaussian(mode, FIG3_BG, ts)
    assert traj.beta[0] == 0.0
    assert traj.alpha[0] ** 2 == pytest.approx(1.5 * 0.8, rel=1e-15)
    worst_a2, worst_b = route_deviations(mode, FIG3_BG, traj)
    assert worst_a2 <= 1e-9
    assert worst_b <= 1e-9


@pytest.mark.parametrize("t_eval", [
    [-1.0, -2.0, 1.0],  # not sorted
    [-1.0, -1.0, 1.0],  # repeated point
    [-math.inf, 0.0],   # t0 = ts[0] not finite
    [0.0, math.nan, 1.0],
    [0.0, math.nan],
    [[0.0, 1.0]],       # not 1-D
    [],
    [0.0, math.inf],
])
def test_evolve_rejects_bad_t_eval(t_eval):
    with pytest.raises(DomainError):
        modes.evolve_gaussian(FIG3_MODE, FIG3_BG, t_eval)


def test_evolve_step_doubling_failure(monkeypatch):
    # omega grows 12,600-fold within ~1/rho and alpha^2 from 5e-5 to ~400:
    # the h and h/2 runs differ by ~8e-7, so the step is halved once more,
    # and the h/2 and h/4 runs agree and meet the 2F1 route.  A budget that
    # the halving would exceed turns the failed check into StiffnessError.
    mode = EnvMode(mass_m=0.05, omega0=0.001, coupling_c=2.0)
    bg = TanhBackground(amplitude_a=1.0, rho=4.0)
    ts = np.linspace(-2.5, 2.5, 21)

    def evolve():
        return modes.evolve_gaussian(mode, bg, ts)

    worst_a2, worst_b = route_deviations(mode, bg, evolve())
    assert worst_a2 <= 1e-6
    assert worst_b <= 1e-6
    first_pass = 3 * int(modes.magnus_steps(mode, bg, ts)[1].sum())
    monkeypatch.setattr(modes, "_MAX_STEPS", 2 * first_pass)
    with pytest.raises(StiffnessError, match="h and h/2"):
        evolve()


def test_evolve_step_budget():
    # a vacuum start at rho = 1e-7 spans 2.4e8 time units: ~1e10 steps
    slow = TanhBackground(amplitude_a=1.0, rho=1e-7)
    t0 = modes.vacuum_start_time(slow)
    with pytest.raises(StiffnessError, match="steps"):
        modes.evolve_gaussian(FIG3_MODE, slow, [-t0])


def test_adiabatic_limit_tracks_ground_state():
    # rho = omega0/50: no particle creation, late state is the instantaneous
    # ground state alpha^2 = m omega_inf
    slow = TanhBackground(amplitude_a=1.0, rho=0.02)
    t0 = modes.vacuum_start_time(slow)
    traj = modes.evolve_gaussian(FIG3_MODE, slow, [-t0])
    _, om_inf = modes.omega_asymptotics(FIG3_MODE, slow)
    assert traj.alpha[-1] ** 2 == pytest.approx(FIG3_MODE.mass_m * om_inf, rel=1e-3)


def test_sudden_limit_beta_oscillates_at_doubled_frequency():
    # rho >> omega0 acts as an instantaneous frequency jump; the squeezed
    # state's beta then oscillates as sin(2 omega_inf t), so its zeros are
    # spaced by pi/(2 omega_inf)
    fast = TanhBackground(amplitude_a=1.0, rho=50.0)
    _, om_inf = modes.omega_asymptotics(FIG3_MODE, fast)
    ts = np.linspace(0.5, 20.0, 8001)
    traj = modes.evolve_gaussian(FIG3_MODE, fast, ts)
    b = traj.beta
    crossings = ts[:-1][np.sign(b[:-1]) != np.sign(b[1:])]
    spacing = float(np.mean(np.diff(crossings)))
    assert spacing == pytest.approx(math.pi / (2 * om_inf), rel=2e-2)

