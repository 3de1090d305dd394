"""Gaussian environment modes over the tanh tunneling background.

A mode's Gaussian state exp[(-alpha^2 + i beta) y^2 / 2 hbar] obeys

    d alpha/dt = -alpha beta / m
    d beta/dt  = alpha^4/m - beta^2/m - m omega(t)^2,

and d ln(xi)/dt = (beta + i alpha^2)/m maps it onto a solution of the linear
oscillator  xi'' + omega(t)^2 xi = 0.  Two independent routes give that
solution:

* ``evolve_gaussian`` steps y = (xi, xi') from the vacuum with 4th-order
  Magnus propagators, chained by a prefix product over the caller's time
  grid and checked by step doubling;
* ``xi_analytic`` evaluates the exact mode function in terms of the Gauss
  hypergeometric function, vacuum-matched at early times.

They share only omega(t) and the (alpha, beta) map.  ``log_derivative``,
the exact route's 2F1 call, takes z = (1 + tanh rho t)/2 = x/2a: from a time
grid in ``xi_analytic``, from positions in ``backreaction.q_factors``.  Both
take a sequence of modes on a 1-D grid and give one row per mode.  Their
callers split the grid by ``grid_blocks``, whose block size is the one
bound on the 2F1 working set: the kernel sums each call in one pass.  The
vacuum (alpha^2 = m omega0, beta = 0) corresponds to xi ~ (2 omega0)^(-1/2)
exp(i omega0 t).  The Wronskian xi xi*' - xi* xi' is conserved and equals -i
for that normalization.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import specfun
from .core import DIGITS_TOL, VACUUM_SATURATION, EnvMode
from .errors import (
    DomainError,
    InconsistentBranchError,
    PrecisionError,
    StiffnessError,
    TachyonicModeError,
)
from .rect import TanhBackground

_MAGNUS_STEP = 0.03  # step h times max(rho, omega_max)
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0  # Gauss points at mid -/+ offset * h
_STEP_DOUBLING_TOL = 1e-7
_MAX_STEPS = 2**26  # coarse plus fine steps of one evolution
_BLOCK_STEPS = 2**16  # steps held in memory at once
# (mode, point) pairs per 2F1 kernel call, which the kernel sums in one
# pass: its Horner arrays (~64 bytes a series pair; a pair on z > 1/2 takes
# two series, four if degraded) stay at 0.5-2 MB whatever the grid
_BLOCK_PAIRS = 8192


class GaussianModeState(NamedTuple):
    """Width/phase pair (alpha > 0, beta) of one mode on the time grid ``t``."""

    alpha: np.ndarray
    beta: np.ndarray
    t: np.ndarray


class ModeFunction(NamedTuple):
    """Complex mode function, its time derivative and d ln xi/dt as each route
    evaluates it, on a 1-D time grid ``t``: one row per mode from
    ``xi_analytic``, the grid's shape from the Magnus route."""

    xi: np.ndarray
    xi_dot: np.ndarray
    t: np.ndarray
    dln: np.ndarray


def _sigmoid_pair(u):
    """(z, 1-z, e) with z = (1 + tanh u)/2, both to full relative precision,
    and e = exp(-2|u|)."""
    e = np.exp(-2.0 * np.abs(u))
    small, large = e / (1.0 + e), 1.0 / (1.0 + e)
    pos = u >= 0.0
    return np.where(pos, large, small), np.where(pos, small, large), e


def _omega2(modes: Sequence[EnvMode], xs) -> np.ndarray:
    # omega0^2 + 2 c x/m at the positions xs, one row per mode
    om0_2, c2, m = np.array([(md.omega0**2, 2.0 * md.coupling_c, md.mass_m) for md in modes]
                            ).T[:, :, None]
    return om0_2 + c2 * xs / m


def grid_blocks(n_modes: int, n_points: int) -> Iterator[slice]:
    """Consecutive slices covering range(n_points), each of at most
    _BLOCK_PAIRS // ``n_modes`` points (at least one), one 2F1 kernel call's
    worth.  A pair's 2F1 bits depend only on its own set and z, so the
    blocks give the bits of one call over the grid."""
    step = max(_BLOCK_PAIRS // n_modes, 1)
    return (slice(lo, min(lo + step, n_points)) for lo in range(0, n_points, step))


def omega_asymptotics(mode: EnvMode, bg: TanhBackground) -> tuple[float, float]:
    """(omega0, omega_infinity) frequencies before and after the traversal."""
    om_inf2 = mode.omega0**2 + 4.0 * mode.coupling_c * bg.amplitude_a / mode.mass_m
    if not math.isfinite(om_inf2):
        raise DomainError(f"late-time omega^2 = {om_inf2} is not a finite double")
    if om_inf2 <= 0.0:
        raise TachyonicModeError(f"late-time omega^2 = {om_inf2} <= 0")
    return mode.omega0, math.sqrt(om_inf2)


def omega_pm(mode: EnvMode, bg: TanhBackground) -> tuple[float, float]:
    """Half sum/difference (omega_plus, omega_minus) of the asymptotic frequencies."""
    om0, om_inf = omega_asymptotics(mode, bg)
    return 0.5 * (om_inf + om0), 0.5 * (om_inf - om0)


def vacuum_start_time(bg: TanhBackground) -> float:
    """Earliest time needed for a vacuum start (tanh saturated to ~1e-10)."""
    return -VACUUM_SATURATION / bg.rho


def evolve_gaussian(mode: EnvMode, bg: TanhBackground, ts) -> GaussianModeState:
    """Evolve (alpha, beta) from the vacuum by 4th-order Magnus steps.

    The run starts at t0 = min(vacuum_start_time(bg), ts[0]), before the
    background has moved, in the ground state alpha0^2 = m omega0, beta0 = 0,
    carried as the linear oscillator y = (xi, xi') from y(t0) = (1, i alpha0^2/m)
    and read back through d ln xi/dt = (beta + i alpha^2)/m.  Returns the
    state on ``ts``, a finite, strictly increasing grid, which is its ``t``.
    Each interval between samples is split into equal steps (``magnus_steps``);
    the run is repeated at half that step, and the half-step result is
    returned when the two agree to 1e-7 in alpha^2 (relative) and in beta
    (relative to max(|beta|, alpha^2)).
    Otherwise the step is halved again, until all runs together would take
    more than 2^26 steps: then StiffnessError is raised.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("ts must be a non-empty 1-D grid")
    if not np.all(np.diff(ts) > 0.0):
        raise DomainError("ts must be strictly increasing")
    edges, counts = magnus_steps(mode, bg, ts)
    spent = 3 * counts.sum()
    # alpha0^2 as sqrt(m omega0)^2, which can differ from m omega0 in the last
    # bit: the *_ode columns are pinned to it
    y1 = 1j * math.sqrt(mode.mass_m * mode.omega0) ** 2 / mode.mass_m
    fine = state_from_xi(mode, _magnus_mode_function(mode, bg, edges, counts, y1))
    while True:
        counts, coarse = 2 * counts, fine
        fine = state_from_xi(mode, _magnus_mode_function(mode, bg, edges, counts, y1))
        a2 = fine.alpha**2
        err = max(np.max(np.abs(coarse.alpha**2 - a2) / a2),
                  np.max(np.abs(coarse.beta - fine.beta) / np.maximum(np.abs(fine.beta), a2)))
        if err <= _STEP_DOUBLING_TOL:
            return fine
        spent += 2 * counts.sum()
        if spent > _MAX_STEPS or not np.isfinite(err):
            raise StiffnessError(
                f"Magnus steps h and h/2 differ by {err:.3g} (tolerance "
                f"{_STEP_DOUBLING_TOL}) at the smallest h that {_MAX_STEPS} "
                "steps allow"
            )


def magnus_steps(mode: EnvMode, bg: TanhBackground, ts) -> tuple[np.ndarray, np.ndarray]:
    """Edges [t0, *ts] and steps per interval, each of at most 0.03/max(rho,
    omega_max), of the first run of ``evolve_gaussian``; DomainError unless t0
    and ts[-1] are finite, StiffnessError past the 2^26-step budget."""
    t0 = min(vacuum_start_time(bg), ts[0])
    if not (math.isfinite(t0) and math.isfinite(ts[-1])):
        raise DomainError(f"need a finite start t0 = min(-{VACUUM_SATURATION:g}/rho, ts[0]) "
                          f"and a finite ts[-1], got t0 = {t0}, ts[-1] = {ts[-1]}")
    edges = np.concatenate(([t0], ts))
    om0, om_inf = omega_asymptotics(mode, bg)
    h = _MAGNUS_STEP / max(bg.rho, om0, om_inf)
    # a span or count past double range reads inf, which fails the budget
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(np.diff(edges) / h), 1.0)
        n_steps = 3.0 * counts.sum()  # h and h/2 runs
    if n_steps > _MAX_STEPS:
        raise StiffnessError(
            f"the Magnus route needs {n_steps:.3g} steps on [{edges[0]}, {edges[-1]}] "
            f"(at most {_MAX_STEPS})"
        )
    return edges, counts.astype(np.int64)


def _magnus_mode_function(mode, bg, edges, counts, y1) -> ModeFunction:
    """xi and xi' at edges[1:] for xi(edges[0]) = 1, xi'(edges[0]) = y1.

    Interval i is split into counts[i] equal steps.  Each step's propagator
    is exp(Omega) for the two-Gauss-point 4th-order Magnus exponent (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151); Omega is traceless, so
    exp(Omega) = cos(theta) I + (sin(theta)/theta) Omega with
    theta^2 = det Omega.  theta^2 > 0 whenever h^2 (omega1^2 + omega2^2) < 24,
    which the step rule keeps far inside.  Steps are taken in blocks of at
    most _BLOCK_STEPS, each block's running product starting from the last
    block's total, so memory stays bounded on long windows.
    """
    ends = np.cumsum(counts)  # one past each interval's last step
    widths = np.diff(edges) / counts
    out = np.empty((4, counts.size))
    total = [1.0, 0.0, 0.0, 1.0]
    n_steps = int(ends[-1])
    for start in range(0, n_steps, _BLOCK_STEPS):
        k = np.arange(start, min(start + _BLOCK_STEPS, n_steps))
        iv = np.searchsorted(ends, k, side="right")
        h = widths[iv]
        mid = edges[iv] + (k - ends[iv] + counts[iv] + 0.5) * h
        w1, = _omega2([mode], bg.position(mid - _GAUSS_OFFSET * h))
        w2, = _omega2([mode], bg.position(mid + _GAUSS_OFFSET * h))
        s = 0.5 * (w1 + w2)
        # Omega = [[d, h], [-h s, -d]]: (h/2)(A1 + A2) + (sqrt(3) h^2/12)[A2, A1]
        d = (math.sqrt(3.0) / 12.0) * h * h * (w2 - w1)
        theta = np.sqrt(h * h * s - d * d)
        cos, sinc = np.cos(theta), np.sinc(theta / math.pi)
        m = [np.concatenate(([x0], x)) for x0, x in zip(
            total, (cos + sinc * d, sinc * h, -sinc * h * s, cos - sinc * d))]
        _prefix_products(m)
        done = (ends > start) & (ends <= k[-1] + 1)
        out[:, done] = [x[ends[done] - start] for x in m]
        total = [x[-1] for x in m]
    a, b, c, e = out
    xi, xi_dot = a + b * y1, c + e * y1
    return ModeFunction(xi=xi, xi_dot=xi_dot, t=edges[1:], dln=xi_dot / xi)


def _prefix_products(m: list) -> None:
    """Running products M_k ... M_1 M_0 of 2x2 matrices, in place.

    ``m`` holds the four entries [a, b, c, d] of [[a, b], [c, d]] as arrays
    over k.  An inclusive Hillis-Steele scan (CACM 29 (1986) 1170): log2(N)
    whole-array passes, written entry by entry.
    """
    a, b, c, d = m
    shift = 1
    while shift < a.size:
        hi, lo = slice(shift, None), slice(None, -shift)
        a[hi], b[hi], c[hi], d[hi] = (
            a[hi] * a[lo] + b[hi] * c[lo], a[hi] * b[lo] + b[hi] * d[lo],
            c[hi] * a[lo] + d[hi] * c[lo], c[hi] * b[lo] + d[hi] * d[lo],
        )
        shift *= 2


def log_derivative(modes: Sequence[EnvMode], bg: TanhBackground, z, w
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(F, d ln xi/dt) of the exact mode function at the 2F1 arguments ``z``
    and ``w`` = 1 - z, one row per mode, from one kernel call:
    F = 2F1(1 - i omega_-/rho, -i omega_-/rho; 1 + i omega0/rho; z) and, as
    dz/dt = 2 rho z w, d ln xi/dt = i omega0 + 2 i omega_- z + 2 rho z w F'/F.
    PrecisionError at the first worst pair unless eps times every 2F1 ``bounds``
    entry is at most DIGITS_TOL; DomainError (``omega_asymptotics``) for an
    omega_infinity^2 that is <= 0 (TachyonicModeError) or not a finite double.
    """
    rho = bg.rho
    pm = [omega_pm(m, bg) for m in modes]
    params = ([1.0 - 1j * om_m / rho for _, om_m in pm], [-1j * om_m / rho for _, om_m in pm],
              [1.0 + 1j * m.omega0 / rho for m in modes])
    res = specfun.hyp2f1_ex(*params, z, w)
    F, dF, bounds = res.value, res.dz, res.bounds
    k, i, j = np.unravel_index(np.argmax(bounds), bounds.shape)
    if not bounds[k, i, j] * np.finfo(float).eps <= DIGITS_TOL:  # NaN fails
        at = f"at (a, b, c) = {tuple(complex(p[i]) for p in params)}, z = {z[j]}"
        if not np.isfinite([F[i, j], dF[i, j]]).all():
            raise PrecisionError(f"2F1 overflows {at}: F or dF/dz is not a finite double")
        raise PrecisionError(f"2F1 series cancels: sum |t_n| is {bounds[k, i, j]:.3g} times "
                             f"|{('F', 'dF/dz')[k]}| {at}; fewer than 12 significant digits hold")
    # per-mode columns against the grid
    om_m, om0 = np.array(pm)[:, 1:], np.array([[m.omega0] for m in modes])
    return F, 1j * om0 + 2j * om_m * z + 2.0 * rho * z * w * dF / F


def xi_analytic(modes: Sequence[EnvMode], bg: TanhBackground, t) -> ModeFunction:
    """Exact vacuum-matched mode function over the tanh background.

    xi(t) = (2 omega0)^(-1/2) exp[i omega_+ t + i omega_- ln(2 cosh rho t)/rho] F(z),
    z = (1 + tanh rho t)/2, on the 1-D time grid ``t``, with F and d ln xi/dt
    from ``log_derivative``.  ``xi``, ``xi_dot`` and ``dln`` have one row per
    mode; all modes take one 2F1 kernel call.
    """
    rho = bg.rho
    t = np.asarray(t, dtype=float)
    u = rho * t
    z, w, e = _sigmoid_pair(u)
    if np.any(w <= 0.0):
        raise DomainError(f"trajectory argument saturated at t = {t[np.argmax(w <= 0.0)]}")
    F, dln = log_derivative(modes, bg, z, w)
    om_p, om_m = np.array([omega_pm(m, bg) for m in modes]).T[:, :, None]
    om0 = np.array([[m.omega0] for m in modes])
    # ln(2 cosh u) evaluated without overflow
    log2cosh = np.abs(u) + np.log1p(e)
    phase = 1j * (om_p * t + om_m * log2cosh / rho)
    xi = F * np.exp(phase) / np.sqrt(2.0 * om0)
    return ModeFunction(xi=xi, xi_dot=xi * dln, t=t, dln=dln)


def state_from_xi(mode: EnvMode, mf: ModeFunction) -> GaussianModeState:
    """Map the mode function to (alpha, beta): d ln xi/dt = (beta + i alpha^2)/m.
    At the first t where the map fails: PrecisionError if alpha^2 or beta is
    not a finite double, else InconsistentBranchError (alpha^2 <= 0)."""
    with np.errstate(over="ignore"):
        a2, beta = mode.mass_m * np.imag(mf.dln), mode.mass_m * np.real(mf.dln)
    finite = np.ravel(np.isfinite(a2) & np.isfinite(beta))
    bad = ~finite | np.ravel(a2 <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        at = f"at t = {np.ravel(mf.t)[i]}"
        if not finite[i]:
            raise PrecisionError(f"alpha^2 or beta is not a finite double {at}")
        raise InconsistentBranchError(f"Im d ln xi/dt = {np.ravel(mf.dln)[i].imag} <= 0 {at}: "
                                      "not a normalizable Gaussian")
    return GaussianModeState(alpha=np.sqrt(a2), beta=beta, t=mf.t)
