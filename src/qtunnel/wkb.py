"""Semiclassical total-potential profiles for smooth barriers.

The tunneling boundary condition (purely outgoing wave past the barrier)
fixes the under-barrier amplitude to carry BOTH the growing exponential and
an i/2-weighted decaying exponential.  The cross term of the two cancels in
|phi|^2, and the small imaginary part is what keeps the kinetic density
E - V_tot of the effective classical system positive through the barrier.

The grid is cut into five segments: region I, the left window, region II
(under the barrier), the right window and region III.  Neighbouring
segments share their seam point; phi keeps its semiclassical value there,
and V_Q is that of the segment on the seam's left.  In each window, centred
on a turning point and sized by a linearization budget and a validity floor
on the scaled Airy argument, the semiclassical forms are replaced with the
exact solution of the locally linearized problem (Ai and Bi of the scaled
distance to the turning point, DLMF 9.2), least-squares matched to the
semiclassical wavefunction at both window edges; ``airy.airy`` evaluates Ai
and Bi.  The whole profile runs on numpy's core alone, with no LAPACK call:
the 4x2 window match is solved by a two-column Gram-Schmidt QR, and the
action tails use ``grid``'s 24-node Gauss-Legendre table.  V and V' are
each evaluated once on the grid; the profile's ``v`` is that V.  The
potential is only ever called on numpy arrays: the grid, quadrature nodes
and the scan nodes of the turning-point and width searches.  A potential
that leaves double range on any of them raises ``PrecisionError``.

Also provides the tanh-trajectory steepness parameter for general barriers,
built from the slope at the exit turning point and Gamma(1/3), Gamma(2/3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .airy import airy
from .core import LOG_DOUBLE_MAX, PhysicalParams, SmoothPotential
from .errors import (
    DegenerateTurningPointError,
    DomainError,
    OrientationError,
    PrecisionError,
    ThinBarrierError,
    TurningPointTopologyError,
)
from .grid import cumulative_simpson, gauss_legendre
from .rect import quantum_potential

# each scan narrows the bracket (_SCAN_POINTS - 1)-fold: 63^9 > 2^53
_SCAN_POINTS = 64
_SCAN_ROUNDS = 9
_LINEARIZATION_BUDGET = 0.05  # |V - V_lin| <= budget * |V'| * w at window edge
_EDGE_ARGUMENT = 0.8  # least scaled Airy argument |s| w at a window edge
# the grid's segments, left to right; the windows are the odd ones
_SEGMENTS = ("region I", "left window", "region II", "right window", "region III")


class TurningPoints(NamedTuple):
    """Roots of V(x) = E bracketing one barrier, with the slopes there."""

    left_x0: float
    right_a: float
    slope_left: float
    slope_right: float


class WkbProfile(NamedTuple):
    """Patched semiclassical amplitude, phase gradient, and total potential
    V_tot = V + V_Q; the kinetic density is E - v_tot."""

    xs: np.ndarray
    v: np.ndarray
    r: np.ndarray
    w_prime: np.ndarray
    v_tot: np.ndarray
    turning_points: TurningPoints
    barrier_action: float
    windows: tuple[tuple[float, float], tuple[float, float]]
    boundary_mismatch: float
    flux_drift: float


def find_turning_points(
    potential: SmoothPotential,
    E: float,
    bracket: tuple[float, float],
) -> TurningPoints:
    """Locate the two roots of V(x) = E inside the bracket.

    A 512-point scan must find exactly two sign changes of V - E, with V < E
    outside them; ``_last_before_positive`` narrows each to rounding level.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise DomainError(f"bracket must satisfy lo < hi with a finite span, got {lo}, {hi}")
    xs = np.linspace(lo, hi, 512)
    with np.errstate(all="ignore"):  # a non-finite V fails the check
        signs = np.sign(_checked(potential(xs), xs) - E)
    starts = np.flatnonzero((signs[:-1] != signs[1:]) & (signs[:-1] != 0))
    if starts.size != 2:
        raise TurningPointTopologyError(
            f"expected exactly 2 roots of V=E in {bracket}, found {starts.size}"
        )
    if signs[starts[0]] > 0:
        raise TurningPointTopologyError(
            "bracket contains a well, not a barrier (V < E between the roots)"
        )
    i, j = starts
    x0 = _last_before_positive(lambda x: potential(x) - E, xs[i], xs[i + 1])
    a = _last_before_positive(lambda x: E - potential(x), xs[j], xs[j + 1])
    with np.errstate(all="ignore"):  # a non-finite slope fails the width scans
        s0, sa = (float(s) for s in potential.derivative(np.array([x0, a])))
    scale = max(abs(s0), abs(sa), 1e-300)
    for x, s in ((x0, s0), (a, sa)):
        if abs(s) < 1e-8 * scale:
            raise DegenerateTurningPointError(
                f"V'({x}) = {s} vanishes: barrier top touches E"
            )
    return TurningPoints(left_x0=x0, right_a=a, slope_left=s0, slope_right=sa)


def _checked(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Values of V, or of a function of V, at xs; PrecisionError naming the
    first x where one is not a finite double."""
    if not np.isfinite(values).all():
        x = xs[np.argmin(np.isfinite(values))]
        raise PrecisionError(f"the barrier leaves double range near x = {x:.6g}")
    return values


def _scan_lattice(lo: float, hi: float) -> np.ndarray:
    """np.linspace(lo, hi, _SCAN_POINTS) to the bit, in linspace's own steps
    (a subnormal span whose step rounds to 0 is scaled after the division)."""
    xs = np.arange(float(_SCAN_POINTS))
    step = (hi - lo) / (_SCAN_POINTS - 1)
    if step == 0:
        xs /= _SCAN_POINTS - 1
        step = hi - lo
    xs *= step
    xs += lo
    xs[-1] = hi
    return xs


def _last_before_positive(g, lo: float, hi: float) -> float:
    """The last x in [lo, hi] before g(x) first turns positive, or hi if it
    never does; g(lo) <= 0.  Each round calls g once on _SCAN_POINTS nodes and
    narrows [lo, hi] to the step where g first turns positive.  A g that is
    not a finite double on a node raises PrecisionError.
    """
    with np.errstate(all="ignore"):  # a non-finite g fails the check
        for _ in range(_SCAN_ROUNDS):
            xs = _scan_lattice(lo, hi)
            positive = _checked(g(xs), xs) > 0
            i = int(positive.argmax())
            if not positive[i]:
                return float(hi)
            lo, hi = xs[i - 1], xs[i]
    return float(lo)


def _airy_scale(params: PhysicalParams, slope: float) -> float:
    """Real cube root s of 2 M V'(x_t)/hbar^2, negative where V' < 0.

    Near a turning point x_t the linearized problem y'' = s^3 (x - x_t) y
    is solved exactly by Ai and Bi of s (x - x_t); |s| is the inverse
    length scale of the Airy region.
    """
    return math.copysign(
        (2.0 * params.mass_M * abs(slope)) ** (1.0 / 3.0) / params.hbar ** (2.0 / 3.0), slope
    )


def _window_width(potential: SmoothPotential, x_t: float, slope: float,
                  w_max: float, w_floor: float) -> float:
    """Patch half-width at one turning point.

    Two competing requirements: the linearized potential must stay within a
    5% budget of the slope term at the window edge (else the Airy model is
    unfaithful), and the semiclassical forms being matched at the edge must
    be evaluated far enough from the turning point to be meaningful: the
    scaled Airy argument |s| w at the edge must reach 0.8, w >= ``w_floor``.
    When the two conflict (a deeply quantum barrier), the edge-validity
    floor wins: matching against the semiclassical form at |s| w << 1
    produces a spurious fluxless standing wave in the window.
    """
    v_t = potential(np.full(1, x_t))[0]

    budget = _LINEARIZATION_BUDGET * abs(slope)

    def excess(w: np.ndarray) -> np.ndarray:
        dv = potential(x_t + np.concatenate((w, -w))) - v_t
        sw = slope * w
        err = np.maximum(np.abs(dv[:w.size] - sw), np.abs(dv[w.size:] + sw))
        return err - budget * w

    w_lin = _last_before_positive(excess, 0.0, w_max)
    return min(max(w_lin, w_floor), w_max)


def rho_general(params: PhysicalParams, turning_points: TurningPoints) -> float:
    """Tanh-trajectory steepness for a general barrier from the exit slope.

    rho = [3^(5/6) Gamma(2/3) / (2 Gamma(1/3))] * hbar * beta^(1/3) / (M a),
    with beta = -V'(a) at the right turning point a.
    """
    a = turning_points.right_a
    slope = turning_points.slope_right
    if slope >= 0:
        raise OrientationError(
            f"right turning point must have V'(a) < 0, got {slope}"
        )
    beta = -slope
    prefactor = 3.0 ** (5.0 / 6.0) * math.gamma(2.0 / 3.0) / (2.0 * math.gamma(1.0 / 3.0))
    return prefactor * params.hbar * beta ** (1.0 / 3.0) / (params.mass_M * a)


def _least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution c of A c = b for a real A of two columns and
    a complex b, by modified Gram-Schmidt: A = QR with orthonormal q1, q2, then
    R c = Q^T b back-substituted.  Elementwise sums, so the window match's 4x2
    systems call neither LAPACK nor complex BLAS."""
    a1, a2 = A.T
    r11 = math.hypot(*a1)
    q1 = a1 / r11
    r12 = float((q1 * a2).sum())
    v = a2 - r12 * q1
    r22 = math.hypot(*v)
    q2 = v / r22
    y1 = (q1 * b).sum()
    c2 = (q2 * (b - y1 * q1)).sum() / r22
    return np.array([(y1 - r12 * c2) / r11, c2])


def _combine(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coeffs[0] rows[0] + coeffs[1] rows[1]: coeffs @ rows, elementwise."""
    return coeffs[0] * rows[0] + coeffs[1] * rows[1]


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, NaN if any value
    is NaN; it skips the numpy.ma import of np.median's first call."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2, -1])  # NaN sorts last
    return math.nan if math.isnan(part[-1]) else float(part[(n - 1) // 2:n // 2 + 1].mean())


def wkb_total_potential(
    potential: SmoothPotential,
    E: float,
    params: PhysicalParams,
    turning_points: TurningPoints,
    num_points: int = 2000,
    window_shrink: float = 1.0,
    domain: tuple[float, float] | None = None,
) -> WkbProfile:
    """Patched total-potential profile across one smooth barrier.

    ``turning_points`` come from ``find_turning_points``.  ``window_shrink``
    rescales the automatically chosen patch half-widths (for
    patch-independence studies).  The scaled Airy argument |s| w at each
    window edge is at least 0.8.
    """
    tps = turning_points
    x0, a = tps.left_x0, tps.right_a
    gap = a - x0

    s_l, s_r = _airy_scale(params, tps.slope_left), _airy_scale(params, tps.slope_right)
    floor_l, floor_r = _EDGE_ARGUMENT / abs(s_l), _EDGE_ARGUMENT / abs(s_r)
    if window_shrink * (floor_l + floor_r) >= gap:
        raise ThinBarrierError(
            "patch windows overlap: barrier too thin for WKB; "
            "use the rectangular or exact treatment"
        )
    w_l = _window_width(potential, x0, tps.slope_left, 0.45 * gap, floor_l) * window_shrink
    w_r = _window_width(potential, a, tps.slope_right, 0.45 * gap, floor_r) * window_shrink

    if domain is None:
        margin = 0.15 * gap + max(w_l, w_r)
        lo, hi = x0 - margin, a + margin
    else:
        lo, hi = float(domain[0]), float(domain[1])
        if lo >= x0 - w_l or hi <= a + w_r:
            raise DomainError("domain must contain both patch windows")
    xs = np.linspace(lo, hi, num_points)
    h = xs[1] - xs[0]
    with np.errstate(all="ignore"):  # a non-finite V fails the check
        v_bare = _checked(potential(xs), xs)

    # segment k runs from cuts[k] to cuts[k + 1], both seam points included
    cuts = [0, *(int(round((x - lo) / h)) for x in (x0 - w_l, x0 + w_l, a - w_r, a + w_r)),
            num_points - 1]
    for name, i, j in zip(_SEGMENTS, cuts, cuts[1:]):
        if j - i < 6:
            raise DomainError(f"{name} holds fewer than 6 grid points; increase num_points")
    segs = [slice(i, j + 1) for i, j in zip(cuts, cuts[1:])]
    seg_i, seg_ii, seg_iii = segs[::2]
    seam = xs[cuts]

    # action pieces: the middle by cumulative Simpson on the grid, each tail
    # from a turning point x_t to a seam x_t + L by 24-node Gauss-Legendre in
    # u, x = x_t + L u^2 (smooth at the sqrt endpoint); q, p read 0 past x_t.
    # 2 M |V - E| may leave double range: wave numbers and tails are checked
    M, hbar = params.mass_M, params.hbar

    def q_of(v):
        return np.sqrt(np.maximum(2.0 * M * (v - E), 0.0)) / hbar

    def p_of(v):
        return np.sqrt(np.maximum(2.0 * M * (E - v), 0.0)) / hbar

    def tail(k_of, x_t, x_seam):
        L = x_seam - x_t
        return abs(L) * gauss_legendre(lambda u: 2.0 * u * k_of(potential(x_t + L * u * u)),
                                       0.0, 1.0)

    with np.errstate(all="ignore"):
        p_i, q_ii, p_iii = p_of(v_bare[seg_i]), q_of(v_bare[seg_ii]), p_of(v_bare[seg_iii])
        for seg, k in ((seg_i, p_i), (seg_ii, q_ii), (seg_iii, p_iii)):
            flat = ~(_checked(k, xs[seg]) > 0.0)
            if flat.any():
                raise DomainError(
                    f"V - E changes sign inside a semiclassical region at x = "
                    f"{xs[seg][np.argmax(flat)]}"
                )
        tail_l, tail_r = tail(q_of, x0, seam[2]), tail(q_of, a, seam[3])
        tail_i, tail_iii = tail(p_of, x0, seam[1]), tail(p_of, a, seam[4])
    cum_ii = cumulative_simpson(q_ii, h)
    theta = tail_l + cum_ii[-1] + tail_r
    if not 2.0 * theta <= LOG_DOUBLE_MAX:  # |phi|^2 grows like e^(2 theta)
        raise PrecisionError(f"barrier action {theta:.6g}: e^(2 theta) leaves double range")
    if not math.isfinite(tail_i + tail_iii):
        raise PrecisionError("the phase outside a turning point leaves double range")

    # oscillatory phases outside the barrier
    cum_i = cumulative_simpson(p_i, h)
    theta_l = tail_i + (cum_i[-1] - cum_i)
    cum_iii = cumulative_simpson(p_iii, h)
    theta_r = tail_iii + cum_iii

    dv = potential.derivative(xs)

    def amplitude_slope(seg, k, sign):
        """k'/(2k) on a region, the slope of ln sqrt(k), for k = q (sign 1) or p (sign -1)."""
        return sign * M * dv[seg] / (hbar**2 * k) / (2.0 * k)

    phi = np.empty(num_points, dtype=complex)
    dphi = np.empty(num_points, dtype=complex)

    # region I: the connected incident-plus-reflected wave; d theta_l/dx = -p
    arg = theta_l + math.pi / 4.0
    big = 2.0 * math.exp(theta) * np.sin(arg)
    dbig = -2.0 * math.exp(theta) * np.cos(arg) * p_i
    small = 0.5j * math.exp(-theta) * np.cos(arg)
    dsmall = 0.5j * math.exp(-theta) * np.sin(arg) * p_i
    phi_i = (big + small) / np.sqrt(p_i)
    phi[seg_i] = phi_i
    dphi[seg_i] = (-amplitude_slope(seg_i, p_i, -1.0) * phi_i
                   + (dbig + dsmall) / np.sqrt(p_i))

    # region II: growing exponential plus the i/2-weighted decaying one,
    # with theta_x the action from x to the right turning point
    theta_x = cum_ii[-1] - cum_ii + tail_r
    grow = np.exp(theta_x)
    decay = 0.5j * np.exp(-theta_x)
    phi_ii = (grow + decay) / np.sqrt(q_ii)
    phi[seg_ii] = phi_ii
    dphi[seg_ii] = (-amplitude_slope(seg_ii, q_ii, 1.0) * phi_ii
                    + np.sqrt(q_ii) * (-grow + decay))

    # region III: the purely outgoing wave
    arg = theta_r + math.pi / 4.0
    phi_iii = np.exp(1j * arg) / np.sqrt(p_iii)
    dphi[seg_iii] = (1j * p_iii - amplitude_slope(seg_iii, p_iii, -1.0)) * phi_iii
    phi[seg_iii] = phi_iii

    mismatch = 0.0
    patch_r = [None] * len(segs)  # |phi| of each window's own patch solution
    for win, x_t, s in ((1, x0, s_l), (3, a, s_r)):
        i0, i1 = cuts[win], cuts[win + 1]
        # Ai, Bi of the linearized problem and their x-derivatives (DLMF 9.2)
        ai, aip, bi, bip = airy(s * (xs[segs[win]] - x_t))
        ys, dys, scale = np.array([ai, bi]), s * np.array([aip, bip]), abs(s)
        A_mat = np.array([ys[:, 0], dys[:, 0] / scale, ys[:, -1], dys[:, -1] / scale])
        b_vec = np.array([phi[i0], dphi[i0] / scale, phi[i1], dphi[i1] / scale])
        coeffs = _least_squares(A_mat, b_vec)
        resid = _combine(coeffs, A_mat.T) - b_vec
        mismatch = max(mismatch, float(np.max(np.abs(resid)) / np.max(np.abs(b_vec))))
        # patch solution over the whole window including the seam points; the
        # assembled profile keeps the seam values from the WKB side, but the
        # window's own finite differences must not see that jump
        vals, dvals = _combine(coeffs, ys), _combine(coeffs, dys)
        patch_r[win] = np.abs(vals)
        phi[i0 + 1:i1] = vals[1:-1]
        dphi[i0 + 1:i1] = dvals[1:-1]

    r = np.abs(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_prime = hbar * np.imag(dphi / phi)

    # quantum potential per segment: no finite-difference stencil crosses a
    # seam, window segments difference their own (patch) amplitude, and a
    # seam point keeps the value of the segment on its left
    vq = [quantum_potential(r[seg] if r_seg is None else r_seg, h, params, x0=xs[seg.start])
          for seg, r_seg in zip(segs, patch_r)]
    v_tot = v_bare + np.concatenate([vq[0], *(v[1:] for v in vq[1:])])

    flux = hbar * np.imag(np.conj(phi) * dphi) / M
    flux_ref = _median(flux)
    flux_drift = (
        float(np.max(np.abs(flux - flux_ref)) / abs(flux_ref))
        if flux_ref != 0.0 else math.inf
    )

    return WkbProfile(
        xs=xs, v=v_bare, r=r, w_prime=w_prime, v_tot=v_tot,
        turning_points=tps, barrier_action=theta,
        windows=((seam[1], seam[2]), (seam[3], seam[4])),
        boundary_mismatch=mismatch, flux_drift=flux_drift,
    )
