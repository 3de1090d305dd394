"""Turning points, patched semiclassical profiles, and the trajectory steepness."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtunnel.cli import main
from qtunnel.core import PhysicalParams, SmoothPotential
from qtunnel.errors import (
    DegenerateTurningPointError,
    DomainError,
    OrientationError,
    PrecisionError,
    ThinBarrierError,
    TurningPointTopologyError,
)
from qtunnel import wkb

QUADRATIC = SmoothPotential(lambda x: 1.0 - 8.0 * x * (x - 1.0), lambda x: 8.0 - 16.0 * x)
PARAMS_E1 = PhysicalParams(energy_E=1.0)


@pytest.fixture(scope="module")
def quadratic_tps():
    return wkb.find_turning_points(QUADRATIC, 1.0, (-0.5, 1.5))


@pytest.fixture(scope="module")
def quadratic_profile(quadratic_tps):
    return wkb.wkb_total_potential(QUADRATIC, 1.0, PARAMS_E1, turning_points=quadratic_tps)


def test_turning_points_exact_roots(quadratic_tps):
    assert quadratic_tps.left_x0 == pytest.approx(0.0, abs=1e-10)
    assert quadratic_tps.right_a == pytest.approx(1.0, abs=1e-10)
    assert quadratic_tps.slope_left == pytest.approx(8.0, rel=1e-9)
    assert quadratic_tps.slope_right == pytest.approx(-8.0, rel=1e-9)


def test_turning_points_quadratic_formula():
    tps = wkb.find_turning_points(QUADRATIC, 2.0, (-0.5, 1.5))
    # roots of 8x^2 - 8x + 1 = 0
    assert tps.left_x0 == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-10)
    assert tps.right_a == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0, abs=1e-10)


def test_turning_point_on_a_scan_node():
    # V - E = (x - r)(1.2 - x) vanishes exactly on node 100 of the topology scan
    r = np.linspace(-0.5, 1.5, 512)[100]
    pot = SmoothPotential(lambda x: (x - r) * (1.2 - x) + 1.0, lambda x: 1.2 + r - 2.0 * x)
    tps = wkb.find_turning_points(pot, 1.0, (-0.5, 1.5))
    assert tps.left_x0 == pytest.approx(r, abs=1e-12 * 2.0)
    assert tps.right_a == pytest.approx(1.2, abs=1e-12 * 2.0)


@pytest.mark.parametrize("x_t, slope", [(0.0, 8.0), (1.0, -8.0)])
def test_window_width_set_by_linearization_budget(x_t, slope):
    # for the quadratic |V - V_lin| = 8 w^2 meets 0.05 * 8 * w at w = 0.05,
    # above the edge floor 0.8/|s| at hbar = 0.05 and below the cap 0.45
    params = PhysicalParams(energy_E=1.0, hbar=0.05)
    floor = 0.8 / abs(wkb._airy_scale(params, slope))
    assert floor == pytest.approx(0.0431, abs=1e-4)
    assert wkb._window_width(QUADRATIC, x_t, slope, 0.45, floor) == pytest.approx(
        0.05, abs=1e-12)


def _arrays_only(fn):
    def wrapped(x):
        if not isinstance(x, np.ndarray):
            raise TypeError(f"potential called on {type(x).__name__}, not an array")
        return fn(x)
    return wrapped


def test_potential_called_on_arrays_only(quadratic_profile):
    pot = SmoothPotential(_arrays_only(lambda x: 1.0 - 8.0 * x * (x - 1.0)),
                          _arrays_only(lambda x: 8.0 - 16.0 * x))
    bracket, domain = (-0.5, 1.5), (-0.6, 1.6)
    tps = wkb.find_turning_points(pot, 1.0, bracket)
    prof = wkb.wkb_total_potential(pot, 1.0, PARAMS_E1, turning_points=tps)
    wkb.wkb_total_potential(pot, 1.0, PARAMS_E1, turning_points=tps, domain=domain)
    wkb.wkb_total_potential(pot, 1.0, PARAMS_E1, turning_points=tps, domain=domain,
                            window_shrink=0.5)
    assert np.array_equal(prof.v_tot, quadratic_profile.v_tot)


@pytest.mark.parametrize("kwargs, message", [
    ({"num_points": 30, "domain": (-0.5, 1.5)},
     "region I holds fewer than 6 grid points; increase num_points"),
    ({"num_points": 300, "domain": (-20.0, 21.0)},
     "left window holds fewer than 6 grid points; increase num_points"),
    ({"num_points": 400, "domain": (-20.0, 1.5)},
     "region III holds fewer than 6 grid points; increase num_points"),
    ({"domain": (-0.2, 1.5)}, "domain must contain both patch windows"),
], ids=["region-I", "left-window", "region-III", "window-containment"])
def test_segment_guard(quadratic_tps, kwargs, message):
    # a segment of fewer than 6 points, or a domain cutting a patch window
    with pytest.raises(DomainError) as exc:
        wkb.wkb_total_potential(QUADRATIC, 1.0, PARAMS_E1, turning_points=quadratic_tps,
                                **kwargs)
    assert str(exc.value) == message


def test_potential_and_slope_each_evaluated_once_on_the_grid(tmp_path, monkeypatch):
    # the V column is the profile's own V; V' on the grid is one call sliced
    # per region; the only other V' call is the two turning-point slopes
    value_sizes, slope_sizes = [], []
    call, derivative = SmoothPotential.__call__, SmoothPotential.derivative
    monkeypatch.setattr(SmoothPotential, "__call__",
                        lambda self, x: value_sizes.append(np.size(x)) or call(self, x))
    monkeypatch.setattr(SmoothPotential, "derivative",
                        lambda self, x: slope_sizes.append(np.size(x)) or derivative(self, x))
    assert main(["fig2", "--grid-points", "3000", "--out", str(tmp_path / "f.csv")]) == 0
    assert value_sizes.count(3000) == 1
    assert sorted(slope_sizes) == [2, 3000]


def test_turning_points_topology_errors():
    with pytest.raises(TurningPointTopologyError):
        wkb.find_turning_points(QUADRATIC, 4.0, (-0.5, 1.5))  # above the top (V_max = 3)
    well = SmoothPotential(lambda x: x * x, lambda x: 2.0 * x)
    with pytest.raises(TurningPointTopologyError):
        wkb.find_turning_points(well, 1.0, (-2.0, 2.0))  # a well, not a barrier


def test_turning_points_degenerate():
    # E exactly at the barrier top: V'(x0) = 0 there
    hump = SmoothPotential(lambda x: 1.0 - x * x, lambda x: -2.0 * x)
    with pytest.raises((DegenerateTurningPointError, TurningPointTopologyError)):
        wkb.find_turning_points(hump, 1.0, (-1.5, 1.5))


def test_profile_kinetic_density_positive(quadratic_profile):
    prof = quadratic_profile
    mask = (prof.xs >= 0.0) & (prof.xs <= 1.0)
    assert np.all(1.0 - prof.v_tot[mask] > 0.0)
    # the dip inside the barrier is exponentially small against E = 1
    assert (1.0 - prof.v_tot[mask]).min() < 0.05
    assert prof.barrier_action == pytest.approx(math.pi / 2.0, rel=1e-9)


# the barrier action theta = pi Delta sqrt(M/k)/hbar is drawn from 1 up: below
# ~0.8 the patch windows overlap (ThinBarrierError)
@settings(max_examples=40, deadline=None)
@given(theta=st.floats(1.0, 40.0), log10_k=st.floats(-0.3, 2.0), E=st.floats(0.1, 10.0),
       center=st.floats(-2.0, 2.0), M=st.floats(0.5, 2.0), hbar=st.floats(0.5, 2.0))
def test_barrier_action_of_quadratic_barriers(theta, log10_k, E, center, M, hbar):
    # V = V_top - k (x - center)^2/2: the Gauss-Legendre tails plus the
    # Simpson middle give the closed-form action
    k = 10.0**log10_k
    delta = theta * hbar * math.sqrt(k / M) / math.pi
    barrier = SmoothPotential(lambda x: E + delta - 0.5 * k * (x - center) ** 2,
                              lambda x: -k * (x - center))
    half_width = math.sqrt(2.0 * delta / k)
    tps = wkb.find_turning_points(barrier, E,
                                  (center - 2.0 * half_width, center + 2.0 * half_width))
    prof = wkb.wkb_total_potential(barrier, E, PhysicalParams(energy_E=E, hbar=hbar, mass_M=M),
                                   turning_points=tps)
    assert prof.barrier_action == pytest.approx(math.pi * delta * math.sqrt(M / k) / hbar,
                                                rel=1e-10)
    tol = 1e-12 * 4.0 * half_width  # of the bracket width
    assert prof.turning_points.left_x0 == pytest.approx(center - half_width, abs=tol)
    assert prof.turning_points.right_a == pytest.approx(center + half_width, abs=tol)


def test_profile_positive_everywhere(quadratic_profile):
    assert np.all(1.0 - quadratic_profile.v_tot > 0.0)


def test_patch_window_independence(quadratic_tps):
    domain = (-0.6, 1.6)
    full = wkb.wkb_total_potential(
        QUADRATIC, 1.0, PARAMS_E1, turning_points=quadratic_tps, domain=domain
    )
    half = wkb.wkb_total_potential(
        QUADRATIC, 1.0, PARAMS_E1, turning_points=quadratic_tps, domain=domain,
        window_shrink=0.5,
    )
    assert np.array_equal(full.xs, half.xs)
    pad = 3 * (full.xs[1] - full.xs[0])
    outside = np.ones(full.xs.shape, dtype=bool)
    for lo, hi in (*full.windows, *half.windows):
        outside &= (full.xs < lo - pad) | (full.xs > hi + pad)
    rel = np.abs(full.v_tot - half.v_tot) / np.maximum(np.abs(full.v_tot), 1.0)
    assert rel[outside].max() < 1e-4


def test_profile_matching_quality(quadratic_profile):
    # double precision cannot do better than a few tens of percent on this
    # deeply quantum barrier (see decisions log); the bounds below pin the
    # measured quality so regressions surface
    assert quadratic_profile.boundary_mismatch < 0.3
    assert quadratic_profile.flux_drift < 0.15


def _seeded_quadratic_barriers(count: int, seed: int):
    """(potential, E, bracket) of quadratic barriers top - kappa (x - xc)^2
    narrow enough at energy E for the patch windows to fit."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kappa, depth, xc, E = rng.uniform((7.0, 1.8, 0.4, 0.9), (9.0, 2.4, 0.6, 1.1))
        half = math.sqrt(depth / kappa)
        if 1.6 / (4.0 * kappa * half) ** (1.0 / 3.0) >= 1.5 * half:
            continue
        pot = SmoothPotential(lambda x, k=kappa, c=xc, t=E + depth: t - k * (x - c) ** 2,
                              lambda x, k=kappa, c=xc: -2.0 * k * (x - c))
        out.append((pot, E, (xc - half - 0.5, xc + half + 0.5)))
    return out


@pytest.mark.parametrize("case", range(22))
def test_flux_drift_matches_numpy_median(case, monkeypatch):
    """flux_drift keeps the bits of a drift about np.median(flux), on odd and
    even grids of the default fig2 barrier and of 20 seeded quadratic ones."""
    if case < 2:
        pot, E, bracket = QUADRATIC, 1.0, (-0.5, 1.5)
    else:
        pot, E, bracket = _seeded_quadratic_barriers(20, seed=2024)[case - 2]
    seen = []
    median = wkb._median
    monkeypatch.setattr(wkb, "_median", lambda flux: seen.append(flux) or median(flux))
    tps = wkb.find_turning_points(pot, E, bracket)
    prof = wkb.wkb_total_potential(pot, E, PhysicalParams(energy_E=E), turning_points=tps,
                                   num_points=2000 + case % 2)
    (flux,) = seen
    ref = float(np.median(flux))
    expected = float(np.max(np.abs(flux - ref)) / abs(ref))
    assert prof.flux_drift.hex() == expected.hex()


@pytest.mark.parametrize("values", [[2.0, -1.0, 0.5], [4.0, -0.0, 0.0, 1e300, -3.0, 7.0],
                                    [1.0, math.inf, -math.inf, 2.0]])
def test_median_helper_matches_numpy(values):
    values = np.array(values)
    assert wkb._median(values).hex() == float(np.median(values)).hex()
    values[1] = math.nan
    assert math.isnan(wkb._median(values)) and math.isnan(np.median(values))


def test_profile_flux_positive(quadratic_profile):
    prof = quadratic_profile
    flux = prof.w_prime * prof.r**2 / PARAMS_E1.mass_M
    assert np.all(flux > 0.0)


def test_thin_barrier_error():
    # extremely curved walls force the linearization windows to overlap
    spike = SmoothPotential(
        lambda x: 2.0 * np.exp(-((x / 0.05) ** 2)),
        lambda x: 2.0 * np.exp(-((x / 0.05) ** 2)) * (-2.0 * x / 0.05**2),
    )
    with pytest.raises(ThinBarrierError):
        wkb.wkb_total_potential(spike, 1.0, PARAMS_E1,
                                turning_points=wkb.find_turning_points(spike, 1.0, (-0.2, 0.2)))


def test_quartic_cross_check_with_rect():
    # steep quartic barrier: mid-barrier kinetic density within a factor two
    # of the rectangular closed form at matched height and width
    from qtunnel.core import RectBarrier
    from qtunnel import rect

    v0, width = 4.0, 1.0
    quartic = SmoothPotential(
        lambda x: v0 * (1.0 - (2.0 * x / width - 1.0) ** 4),
        lambda x: -v0 * 8.0 / width * (2.0 * x / width - 1.0) ** 3,
    )
    params = PhysicalParams(energy_E=2.0)
    tps = wkb.find_turning_points(quartic, 2.0, (0.0, width))
    prof = wkb.wkb_total_potential(quartic, 2.0, params, turning_points=tps)
    mid = np.argmin(np.abs(prof.xs - 0.5 * width))
    sol = rect.solve_rect(params, RectBarrier(v0, width))
    rect_mid = rect.kinetic_density_region2(sol, width / 2.0)
    ratio = (2.0 - prof.v_tot[mid]) / rect_mid
    assert 0.5 <= ratio <= 2.0


def test_airy_matches_mpmath():
    # relative to the value on z >= 0; on z < 0, where Ai and Bi oscillate
    # and each has zeros, relative to the larger of the pair's magnitudes.
    # Below -2 the Maclaurin series cancel, by up to ~1e4 at -6.  Past z = 8
    # the rounding of e^(-zeta) (zeta = 2 z^(3/2)/3 up to 666 at 99.9) and of
    # the series' powers of z dominates: up to 1.27 zeta eps, in Ai'
    z = np.concatenate((np.linspace(-6.0, 8.0, 281), np.linspace(8.5, 99.9, 184)))
    got = np.array(wkb.airy(z))
    with mp.workdps(30):
        want = np.array([[float(f(mp.mpf(x), derivative=d)) for x in z]
                         for f, d in ((mp.airyai, 0), (mp.airyai, 1), (mp.airybi, 0),
                                      (mp.airybi, 1))])
    scale = np.where(z < 0.0, np.maximum(np.abs(want), np.abs(want[[2, 3, 0, 1]])), np.abs(want))
    zeta = 2.0 / 3.0 * np.abs(z) ** 1.5
    tol = np.where(z < -2.0, 2e-12, np.maximum(2e-14, 2.0 * zeta * np.finfo(float).eps))
    assert np.all(np.abs(got - want) <= tol * scale)


def test_airy_wronskian():
    # Ai Bi' - Ai' Bi = 1/pi to 2e-14: on a 40,001-point grid the worst are
    # 1.4e-14 at z = -4, where the series start to cancel, and 1.1e-14 just
    # below z = 2, where c1 f - c2 g keeps ~14 digits of Ai
    ai, aip, bi, bip = wkb.airy(np.linspace(-4.0, 8.0, 1201))
    np.testing.assert_allclose((ai * bip - aip * bi) * math.pi, 1.0, rtol=0.0, atol=2e-14)


@pytest.mark.parametrize("z", [-12.0, -7.0, 100.0, math.nan])
def test_airy_guard(z):
    # below z ~ -6.3 the series keep fewer than 12 digits; past |z| = 100 Bi
    # nears the end of double range
    with pytest.raises(PrecisionError):
        wkb.airy(np.array([0.5, z]))


@pytest.mark.parametrize("x_t, slope", [(0.0, 8.0), (1.0, -8.0), (0.3, 0.7)])
def test_window_basis_solves_linearized_problem(x_t, slope):
    # y'' = kappa (x - x_t) y with kappa = 2 M V'(x_t)/hbar^2, by 5-point
    # differences of the basis on a grid past |s (x - x_t)| = 2
    params = PhysicalParams(energy_E=1.0, hbar=0.8, mass_M=1.3)
    kappa = 2.0 * params.mass_M * slope / params.hbar**2
    half = 2.0 / abs(kappa) ** (1.0 / 3.0)
    xs = np.linspace(x_t - half, x_t + half, 2001)
    h = xs[1] - xs[0]
    s = wkb._airy_scale(params, slope)
    ai, aip, bi, bip = wkb.airy(s * (xs - x_t))
    ys, dys, scale = np.array([ai, bi]), s * np.array([aip, bip]), abs(s)
    assert scale == pytest.approx(abs(kappa) ** (1.0 / 3.0), rel=1e-14)
    d2 = (-ys[:, :-4] + 16 * ys[:, 1:-3] - 30 * ys[:, 2:-2] + 16 * ys[:, 3:-1]
          - ys[:, 4:]) / (12 * h * h)
    assert np.max(np.abs(d2 - kappa * (xs[2:-2] - x_t) * ys[:, 2:-2])) <= 1e-7 * scale**2
    d1 = (ys[:, :-4] - 8 * ys[:, 1:-3] + 8 * ys[:, 3:-1] - ys[:, 4:]) / (12 * h)
    assert np.max(np.abs(d1 - dys[:, 2:-2])) <= 1e-7 * scale
    # Wronskian Ai Bi' - Bi Ai' = 1/pi in the scaled variable: independent pair
    wronskian = ys[0] * dys[1] - ys[1] * dys[0]
    assert np.allclose(wronskian, math.copysign(scale, slope) / math.pi, rtol=1e-12)


def test_rho_general_quadratic(quadratic_tps):
    rho = wkb.rho_general(PARAMS_E1, quadratic_tps)
    # prefactor 3^(5/6) Gamma(2/3)/(2 Gamma(1/3)) times beta^(1/3) with beta = 8
    oracle = float(
        mp.mpf(3) ** (mp.mpf(5) / 6) * mp.gamma(mp.mpf(2) / 3)
        / (2 * mp.gamma(mp.mpf(1) / 3)) * 2
    )
    assert oracle == pytest.approx(1.262682, abs=3e-6)
    assert rho == pytest.approx(oracle, rel=1e-10)


def test_rho_general_prefactor_crosscheck():
    # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3) pins the Gamma pair
    g13 = float(mp.gamma(mp.mpf(1) / 3))
    g23 = float(mp.gamma(mp.mpf(2) / 3))
    assert g13 * g23 == pytest.approx(2 * math.pi / math.sqrt(3.0), rel=1e-12)
    prefactor = 3 ** (5.0 / 6.0) * g23 / (2 * g13)
    assert prefactor == pytest.approx(0.631342, abs=2e-6)


def test_rho_general_slope_scaling():
    # rho scales as beta^(1/3): build potentials with slopes beta and 8*beta
    params = PhysicalParams(energy_E=1.0)
    rhos = []
    for lam in (1.0, 8.0):
        pot = SmoothPotential(
            lambda x, lam=lam: 1.0 - 8.0 * lam * x * (x - 1.0),
            lambda x, lam=lam: lam * (8.0 - 16.0 * x),
        )
        tps = wkb.find_turning_points(pot, 1.0, (-0.5, 1.5))
        rhos.append(wkb.rho_general(params, tps))
    assert rhos[1] / rhos[0] == pytest.approx(2.0, rel=1e-9)


def test_rho_general_orientation_error():
    tps = wkb.TurningPoints(left_x0=0.0, right_a=1.0, slope_left=8.0, slope_right=0.5)
    with pytest.raises(OrientationError):
        wkb.rho_general(PARAMS_E1, tps)


def _brackets(seed: int):
    """Seeded (lo, hi) brackets: O(1), wide, signed-zero ends, spans of a few
    ulps, and subnormal spans that take linspace's step == 0 branch."""
    rng = np.random.default_rng(seed)
    out = [(0.0, 1.0), (-0.0, 2.5), (0.0, 5e-324), (-5e-324, 5e-324), (0.0, 1e-320),
           (1.0, math.nextafter(1.0, 2.0))]
    for _ in range(40):
        lo = float(rng.uniform(-3.0, 3.0) * 10.0 ** rng.integers(-300, 300))
        out.append((lo, lo + abs(lo) * float(rng.uniform(1e-6, 10.0))))
        hi = lo
        for _ in range(int(rng.integers(1, 6))):
            hi = math.nextafter(hi, math.inf)
        out.append((lo, hi))
    return out


@pytest.mark.parametrize("lo, hi", _brackets(2025))
def test_scan_lattice_is_linspace(lo, hi):
    want = np.linspace(lo, hi, wkb._SCAN_POINTS)
    for ends in ((lo, hi), (np.float64(lo), np.float64(hi))):  # later rounds pass numpy floats
        assert wkb._scan_lattice(*ends).tobytes() == want.tobytes()


def test_least_squares_matches_lstsq_on_seeded_systems():
    # the window systems: Ai, Bi and their scaled slopes at both window edges
    # (real), against the WKB wavefunction there (complex)
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = rng.normal(size=(4, 2))
        A[:, 1] *= 10.0 ** rng.uniform(-3.0, 3.0)  # columns of unlike scales, as Ai and Bi
        if np.linalg.cond(A) > 1e3:
            continue
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        got = wkb._least_squares(A, b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", range(11))
def test_window_match_matches_lstsq(case, monkeypatch):
    """The closed-form solve of each Airy window's 4x2 match gives lstsq's
    coefficients to 1e-13, on the default barrier and on seeded quadratic ones."""
    if case == 0:
        pot, E, bracket = QUADRATIC, 1.0, (-0.5, 1.5)
    else:
        pot, E, bracket = _seeded_quadratic_barriers(10, seed=2025)[case - 1]
    seen = []
    solve = wkb._least_squares
    monkeypatch.setattr(wkb, "_least_squares", lambda A, b: seen.append((A, b)) or solve(A, b))
    tps = wkb.find_turning_points(pot, E, bracket)
    wkb.wkb_total_potential(pot, E, PhysicalParams(energy_E=E), turning_points=tps)
    assert len(seen) == 2
    for A, b in seen:
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        got = solve(A, b)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
