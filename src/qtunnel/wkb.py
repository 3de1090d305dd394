"""Semiclassical total-potential profiles for smooth barriers.

The tunneling boundary condition (purely outgoing wave past the barrier)
fixes the under-barrier amplitude to carry BOTH the growing exponential and
an i/2-weighted decaying exponential.  The cross term of the two cancels in
|phi|^2, and the small imaginary part is what keeps the kinetic density
E - V_tot of the effective classical system positive through the barrier.
Near each turning point the semiclassical forms are replaced, inside a
window sized by a linearization budget and a validity floor on the scaled
Airy argument, with the exact solution of the locally linearized problem
(Ai and Bi of the scaled distance to the turning point, DLMF 9.2),
least-squares matched to the semiclassical wavefunction at both window
edges.  The semiclassical forms, the windows and the potential are
evaluated on whole grid segments at once.

Also provides the tanh-trajectory steepness parameter for general barriers,
built from the slope at the exit turning point and Gamma(1/3), Gamma(2/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import airy

from .core import PhysicalParams, SmoothPotential, cumulative_simpson
from .errors import (
    DegenerateTurningPointError,
    DomainError,
    OrientationError,
    ThinBarrierError,
    TurningPointTopologyError,
)
from .rect import quantum_potential

_ROOT_TOL = 1e-12
_LINEARIZATION_BUDGET = 0.05  # |V - V_lin| <= budget * |V'| * w at window edge


@dataclass(frozen=True)
class TurningPoints:
    """Roots of V(x) = E bracketing one barrier, with the slopes there."""

    left_x0: float
    right_a: float
    slope_left: float
    slope_right: float


@dataclass(frozen=True)
class WkbProfile:
    """Patched semiclassical amplitude, phase gradient, and total potential."""

    xs: np.ndarray
    r: np.ndarray
    w_prime: np.ndarray
    v_tot: np.ndarray
    e_minus_vtot: np.ndarray
    turning_points: TurningPoints
    barrier_action: float
    windows: tuple[tuple[float, float], tuple[float, float]]
    boundary_mismatch: float
    flux_drift: float


def find_turning_points(
    potential: SmoothPotential,
    E: float,
    bracket: tuple[float, float],
    scan_points: int = 512,
) -> TurningPoints:
    """Locate the two roots of V(x) = E inside the bracket.

    Bisection refined by Newton iterations to 1e-12 of the bracket width.
    Exactly two sign changes of V - E must occur in the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi <= lo:
        raise DomainError("bracket must satisfy lo < hi")
    xs = np.linspace(lo, hi, scan_points)
    signs = np.sign(potential(xs) - E)
    starts = np.flatnonzero((signs[:-1] != signs[1:]) & (signs[:-1] != 0))
    if starts.size != 2:
        raise TurningPointTopologyError(
            f"expected exactly 2 roots of V=E in {bracket}, found {starts.size}"
        )
    roots = [_refine_root(potential, E, xs[i], xs[i + 1], hi - lo) for i in starts]
    x0, a = sorted(roots)
    s0, sa = potential.derivative(x0), potential.derivative(a)
    scale = max(abs(s0), abs(sa), 1e-300)
    for x, s in ((x0, s0), (a, sa)):
        if abs(s) < 1e-8 * scale:
            raise DegenerateTurningPointError(
                f"V'({x}) = {s} vanishes: barrier top touches E"
            )
    if s0 < 0 or sa > 0:
        raise TurningPointTopologyError(
            "bracket contains a well, not a barrier (V < E between the roots)"
        )
    return TurningPoints(left_x0=x0, right_a=a, slope_left=s0, slope_right=sa)


def _refine_root(potential, E, a, b, scale) -> float:
    fa = potential(a) - E
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = potential(m) - E
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < 1e-6 * scale:
            break
    x = 0.5 * (a + b)
    for _ in range(60):
        f = potential(x) - E
        d = potential.derivative(x)
        if d == 0:
            break
        step = f / d
        x -= step
        if abs(step) <= _ROOT_TOL * scale:
            break
    return x


def _airy_scale(params: PhysicalParams, slope: float) -> float:
    """Real cube root s of 2 M V'(x_t)/hbar^2, negative where V' < 0.

    Near a turning point x_t the linearized problem y'' = s^3 (x - x_t) y
    is solved exactly by Ai and Bi of s (x - x_t); |s| is the inverse
    length scale of the Airy region.
    """
    return math.copysign(
        (2.0 * params.mass_M * abs(slope) / params.hbar**2) ** (1.0 / 3.0), slope
    )


def _window_width(potential: SmoothPotential, x_t: float, slope: float,
                  w_max: float, params: PhysicalParams,
                  edge_argument: float) -> float:
    """Patch half-width at one turning point.

    Two competing requirements: the linearized potential must stay within a
    5% budget of the slope term at the window edge (else the Airy model is
    unfaithful), and the semiclassical forms being matched at the edge must
    be evaluated far enough from the turning point to be meaningful, i.e.
    the scaled Airy argument gamma*w at the edge must not be small.  When
    the two conflict (a deeply quantum barrier), the edge-validity floor
    wins: matching against the semiclassical form at gamma*w << 1 produces
    a spurious fluxless standing wave in the window.
    """
    v_t = potential(x_t)

    def excess(w: float) -> float:
        err = max(
            abs(potential(x_t + w) - v_t - slope * w),
            abs(potential(x_t - w) - v_t + slope * w),
        )
        return err - _LINEARIZATION_BUDGET * abs(slope) * w

    if excess(w_max) <= 0:
        w_lin = w_max
    else:
        lo, hi = 0.0, w_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if excess(mid) <= 0:
                lo = mid
            else:
                hi = mid
        w_lin = lo
    w_floor = edge_argument / abs(_airy_scale(params, slope))
    return min(max(w_lin, w_floor), w_max)


def rho_general(
    potential: SmoothPotential,
    E: float,
    params: PhysicalParams,
    turning_points: TurningPoints | None = None,
    bracket: tuple[float, float] | None = None,
) -> float:
    """Tanh-trajectory steepness for a general barrier from the exit slope.

    rho = [3^(5/6) Gamma(2/3) / (2 Gamma(1/3))] * hbar * beta^(1/3) / (M a),
    with beta = -V'(a) at the right turning point a.
    """
    if turning_points is None:
        if bracket is None:
            raise DomainError("provide turning_points or a bracket")
        turning_points = find_turning_points(potential, E, bracket)
    a = turning_points.right_a
    slope = turning_points.slope_right
    if slope >= 0:
        raise OrientationError(
            f"right turning point must have V'(a) < 0, got {slope}"
        )
    beta = -slope
    prefactor = 3.0 ** (5.0 / 6.0) * math.gamma(2.0 / 3.0) / (2.0 * math.gamma(1.0 / 3.0))
    return prefactor * params.hbar * beta ** (1.0 / 3.0) / (params.mass_M * a)


def _airy_window_basis(params: PhysicalParams, x_t: float, slope: float,
                       xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact solutions Ai, Bi of the linearized problem on the window grid
    (DLMF 9.2).  Returns their values and x-derivatives, each of shape
    (2, len(xs)), and the scale |s|."""
    s = _airy_scale(params, slope)
    ai, aip, bi, bip = airy(s * (xs - x_t))
    return np.array([ai, bi]), s * np.array([aip, bip]), abs(s)


def wkb_total_potential(
    potential: SmoothPotential,
    E: float,
    params: PhysicalParams,
    turning_points: TurningPoints | None = None,
    bracket: tuple[float, float] | None = None,
    num_points: int = 2000,
    window_shrink: float = 1.0,
    margin_fraction: float = 0.15,
    include_decaying_term: bool = True,
    edge_argument: float = 0.8,
    domain: tuple[float, float] | None = None,
) -> WkbProfile:
    """Patched total-potential profile across one smooth barrier.

    ``window_shrink`` rescales the automatically chosen patch half-widths
    (for patch-independence studies); ``include_decaying_term=False`` drops
    the i/2-weighted decaying exponential under the barrier, which makes the
    amplitude real and lets E - V_tot go non-positive: the construction the
    connection formula forbids.  ``edge_argument`` is the minimum scaled
    Airy argument gamma*w at the window edges.
    """
    if turning_points is None:
        if bracket is None:
            raise DomainError("provide turning_points or a bracket")
        turning_points = find_turning_points(potential, E, bracket)
    tps = turning_points
    x0, a = tps.left_x0, tps.right_a
    gap = a - x0

    gamma_l = abs(_airy_scale(params, tps.slope_left))
    gamma_r = abs(_airy_scale(params, tps.slope_right))
    if edge_argument * window_shrink * (1.0 / gamma_l + 1.0 / gamma_r) >= gap:
        raise ThinBarrierError(
            "patch windows overlap: barrier too thin for WKB; "
            "use the rectangular or exact treatment"
        )
    w_l = _window_width(potential, x0, tps.slope_left, 0.45 * gap,
                        params, edge_argument) * window_shrink
    w_r = _window_width(potential, a, tps.slope_right, 0.45 * gap,
                        params, edge_argument) * window_shrink

    if domain is None:
        margin = margin_fraction * gap + max(w_l, w_r)
        lo, hi = x0 - margin, a + margin
    else:
        lo, hi = float(domain[0]), float(domain[1])
        if lo >= x0 - w_l or hi <= a + w_r:
            raise DomainError("domain must contain both patch windows")
    xs = np.linspace(lo, hi, num_points)
    h = xs[1] - xs[0]

    def snap(x):
        return int(round((x - lo) / h))

    i_l0, i_l1 = snap(x0 - w_l), snap(x0 + w_l)
    i_r0, i_r1 = snap(a - w_r), snap(a + w_r)
    for name, (i, j) in {
        "region I": (0, i_l0), "left window": (i_l0, i_l1),
        "region II": (i_l1, i_r0), "right window": (i_r0, i_r1),
        "region III": (i_r1, num_points - 1),
    }.items():
        if j - i < 6:
            raise DomainError(
                f"{name} holds fewer than 6 grid points; increase num_points"
            )

    # action pieces: singular sqrt tails by quadrature, the regular middle
    # by cumulative Simpson on the grid; q and p take scalars (for quad)
    # and arrays, and read 0 on the wrong side of a turning point
    M, hbar = params.mass_M, params.hbar

    def q_of(x):
        return np.sqrt(np.maximum(2.0 * M * (potential(x) - E), 0.0)) / hbar

    def p_of(x):
        return np.sqrt(np.maximum(2.0 * M * (E - potential(x)), 0.0)) / hbar

    def amplitude_slope(x, k, sign):
        """k'/(2k), the slope of ln sqrt(k), for k = q (sign 1) or p (sign -1)."""
        return sign * M * potential.derivative(x) / (hbar**2 * k) / (2.0 * k)

    quad_opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    xs_i, xs_ii, xs_iii = xs[:i_l0 + 1], xs[i_l1:i_r0 + 1], xs[i_r1:]
    p_i, q_ii, p_iii = p_of(xs_i), q_of(xs_ii), p_of(xs_iii)
    for xs_k, k in ((xs_i, p_i), (xs_ii, q_ii), (xs_iii, p_iii)):
        flat = ~(k > 0.0)
        if flat.any():
            raise DomainError(
                f"V - E changes sign inside a semiclassical region at x = "
                f"{xs_k[np.argmax(flat)]}"
            )
    tail_l = quad(q_of, x0, xs[i_l1], **quad_opts)[0]
    tail_r = quad(q_of, xs[i_r0], a, **quad_opts)[0]
    cum_ii = cumulative_simpson(q_ii, xs_ii)
    theta = tail_l + cum_ii[-1] + tail_r

    # oscillatory phases outside the barrier
    cum_i = cumulative_simpson(p_i, xs_i)
    tail_i = quad(p_of, xs[i_l0], x0, **quad_opts)[0]
    theta_l = tail_i + (cum_i[-1] - cum_i)
    cum_iii = cumulative_simpson(p_iii, xs_iii)
    tail_iii = quad(p_of, a, xs[i_r1], **quad_opts)[0]
    theta_r = tail_iii + cum_iii

    phi = np.empty(num_points, dtype=complex)
    dphi = np.empty(num_points, dtype=complex)

    # region I: the connected incident-plus-reflected wave; d theta_l/dx = -p
    arg = theta_l + math.pi / 4.0
    big = 2.0 * math.exp(theta) * np.sin(arg)
    dbig = -2.0 * math.exp(theta) * np.cos(arg) * p_i
    if include_decaying_term:
        small = 0.5j * math.exp(-theta) * np.cos(arg)
        dsmall = 0.5j * math.exp(-theta) * np.sin(arg) * p_i
    else:
        small = dsmall = 0.0
    phi_i = (big + small) / np.sqrt(p_i)
    phi[:i_l0 + 1] = phi_i
    dphi[:i_l0 + 1] = (-amplitude_slope(xs_i, p_i, -1.0) * phi_i
                       + (dbig + dsmall) / np.sqrt(p_i))

    # region II: growing exponential plus the i/2-weighted decaying one,
    # with s_r the action from x to the right turning point
    s_r = cum_ii[-1] - cum_ii + tail_r
    grow = np.exp(s_r)
    decay = 0.5j * np.exp(-s_r) if include_decaying_term else 0.0
    phi_ii = (grow + decay) / np.sqrt(q_ii)
    phi[i_l1:i_r0 + 1] = phi_ii
    dphi[i_l1:i_r0 + 1] = (-amplitude_slope(xs_ii, q_ii, 1.0) * phi_ii
                           + np.sqrt(q_ii) * (-grow + decay))

    # region III: the purely outgoing wave (its real part without the
    # decaying term)
    arg = theta_r + math.pi / 4.0
    slope_iii = amplitude_slope(xs_iii, p_iii, -1.0)
    if include_decaying_term:
        phi_iii = np.exp(1j * arg) / np.sqrt(p_iii)
        dphi[i_r1:] = (1j * p_iii - slope_iii) * phi_iii
    else:
        phi_iii = np.cos(arg) / np.sqrt(p_iii)
        dphi[i_r1:] = -slope_iii * phi_iii - np.sqrt(p_iii) * np.sin(arg)
    phi[i_r1:] = phi_iii

    mismatch = 0.0
    window_r = {}
    for (x_t, slope, i0, i1) in (
        (x0, tps.slope_left, i_l0, i_l1),
        (a, tps.slope_right, i_r0, i_r1),
    ):
        ys, dys, scale = _airy_window_basis(params, x_t, slope, xs[i0:i1 + 1])
        A_mat = np.array([ys[:, 0], dys[:, 0] / scale, ys[:, -1], dys[:, -1] / scale],
                         dtype=complex)
        b_vec = np.array([phi[i0], dphi[i0] / scale, phi[i1], dphi[i1] / scale])
        coeffs, *_ = np.linalg.lstsq(A_mat, b_vec, rcond=None)
        resid = A_mat @ coeffs - b_vec
        mismatch = max(mismatch, float(np.max(np.abs(resid)) / np.max(np.abs(b_vec))))
        # patch solution over the whole window including the seam points; the
        # assembled profile keeps the seam values from the WKB side, but the
        # window's own finite differences must not see that jump
        vals, dvals = coeffs @ ys, coeffs @ dys
        window_r[i0] = np.abs(vals)
        phi[i0 + 1:i1] = vals[1:-1]
        dphi[i0 + 1:i1] = dvals[1:-1]

    r = np.abs(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_prime = hbar * np.imag(dphi / phi)

    # quantum potential per segment: no finite-difference stencil crosses a
    # seam, and window segments difference their own (patch) amplitude
    v_bare = potential(xs)
    v_tot = np.empty(num_points)
    bounds = [0, i_l0, i_l1, i_r0, i_r1, num_points - 1]
    for seg in range(5):
        s, e = bounds[seg], bounds[seg + 1]
        r_seg = window_r[s] if seg in (1, 3) else r[s:e + 1]
        vq = quantum_potential(r_seg, h, params, x0=xs[s])
        sl = slice(s if seg == 0 else s + 1, e + 1)
        off = 0 if seg == 0 else 1
        v_tot[sl] = v_bare[sl] + vq[off:]

    flux = hbar * np.imag(np.conj(phi) * dphi) / M
    flux_ref = float(np.median(flux))
    flux_drift = (
        float(np.max(np.abs(flux - flux_ref)) / abs(flux_ref))
        if flux_ref != 0.0 else math.inf
    )

    return WkbProfile(
        xs=xs,
        r=r,
        w_prime=w_prime,
        v_tot=v_tot,
        e_minus_vtot=E - v_tot,
        turning_points=tps,
        barrier_action=theta,
        windows=((xs[i_l0], xs[i_l1]), (xs[i_r0], xs[i_r1])),
        boundary_mismatch=mismatch,
        flux_drift=flux_drift,
    )
