"""Gauss hypergeometric kernel for complex parameters, on numpy alone.

* 2F1 on real z in [0, 1), for one or several parameter sets (a, b, c) over
  one array of z, via the direct Gauss series for z <= 1/2 and the two-term
  z -> 1-z linear transformation for z > 1/2, so convergence stays geometric
  with ratio <= 1/2 (DLMF 15.2, 15.8),
* its z-derivative, summed term by term from the same series,
* complex log-Gamma for the transformation's prefactors: Stirling's series
  after a recurrence shift, with reflection for Re z < 1/2 (DLMF 5.5, 5.11).

All series of a call are summed in one loop over the orders, on the
flattened (set, point) pairs.  A pair whose cancellation bound sum|t_n|/|F|
times the double epsilon passes 1e-11 raises ``PrecisionError``.

Pure functions, no state; thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PrecisionError

_MAX_TERMS = 10_000
_REL_EPS = 1e-16
# rounding error (bound times epsilon) allowed relative to a value: one unit
# of the 12th significant digit when the leading digit is 1
_DIGITS_TOL = 1e-11
# |c-a-b| distance from an integer below which the z->1-z transformation is
# ill-conditioned and the perturb-and-average fallback is used instead.
_DEGENERATE_TOL = 1e-6
_PERTURB = 1e-6
# B_2k / (2k (2k - 1)), k = 1..7: past |z| >= 10 the next term is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _is_nonpositive_int(z: complex, tol: float = 1e-14) -> bool:
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


def log_gamma(z) -> np.ndarray:
    """log Gamma(z) on an array of complex z off the poles 0, -1, -2, ...,
    up to a multiple of 2 pi i (exp() of it is Gamma(z)).

    Points with Re z < 1/2 reflect, Gamma(z) Gamma(1 - z) = pi / sin(pi z),
    with sin taken at the exact remainder r = z - round(Re z) through
    expm1(2 i pi r), so it neither loses digits next to a pole nor overflows
    at large |Im z|.  Stirling's series (DLMF 5.11.1) then runs at the
    argument x, or, where |x| < 10, at x + 10 with the ten steps of
    Gamma(x + 1) = x Gamma(x) taken off as the log of one product.
    """
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    x = np.where(reflect, 1.0 - z, z)  # Re x >= 1/2
    near = np.abs(x) < 10.0
    shift = np.prod(x[near] + np.arange(10.0)[:, None], axis=0)
    x[near] += 10.0
    inv2 = 1.0 / (x * x)
    series = functools.reduce(lambda acc, c: acc * inv2 + c, _STIRLING[-2::-1], _STIRLING[-1])
    out = (x - 0.5) * np.log(x) - x + (0.5 * math.log(2.0 * math.pi)) + series / x
    out[near] -= np.log(shift)
    if reflect.any():
        n = np.round(z.real[reflect])
        r = z[reflect] - n
        sign = np.where(r.imag < 0.0, -1.0, 1.0)  # keeps |exp(2 i pi r sign)| <= 1
        log_sin = np.log(-0.5j * sign * np.expm1(2j * math.pi * sign * r))
        out[reflect] = math.log(math.pi) - log_sin + 1j * math.pi * (sign * r - n) - out[reflect]
    return out


@dataclass(frozen=True)
class Hyp2F1Result:
    """Value, z-derivative and diagnostics of a 2F1 evaluation.

    For one (a, b, c), ``value`` and ``dz`` have the shape of z; for 1-D
    a, b, c they have shape (sets,) + z.shape.  ``terms`` is the series
    length summed over the (set, point) pairs and ``degraded`` is true if
    any pair is degraded.  ``bound`` is the largest sum|t_n| / |F| over the
    pairs (on the z > 1/2 branch, over the terms of both series times their
    prefactors) and ``dz_bound`` the same for dF/dz; times the double
    epsilon, each estimates the relative rounding error.
    """

    value: complex | np.ndarray
    degraded: bool
    terms: int
    dz: complex | np.ndarray
    bound: float
    dz_bound: float


def _gauss_series(sets: list, z: np.ndarray, outs: tuple, at: np.ndarray) -> int:
    """Direct Gauss series and its term-by-term z-derivative for each (a, b, c)
    of ``sets`` over one z array in (0, 1/2]; every c off the poles.

    Pair k is set k // z.size at point k % z.size.  The ratio of consecutive
    coefficients is one Python complex per set and order, gathered onto the
    pairs.  Each pair stops on its own rule (three terms in a row below
    _REL_EPS of its sum) and adds zeros from then on; the finished pairs
    leave the working set once they are half of it.  Pair k's F, dF/dz,
    sum|t_n| and sum|dt_n/dz| go to flat index at[k] of the four C-contiguous
    arrays ``outs``.  Returns the series length summed over the pairs.
    """
    outs = [out.reshape(-1) for out in outs]  # views: the arrays are C-contiguous
    idx = np.asarray(at)  # each live pair's flat index into ``outs``
    set_idx, zs = np.arange(idx.size) // z.size, np.tile(z, len(sets))
    term = np.ones(idx.size, dtype=complex)
    total = term.copy()
    dtotal = np.zeros(idx.size, dtype=complex)
    size, dsize = np.ones(idx.size), np.zeros(idx.size)
    streak = np.zeros(idx.size, dtype=np.int16)  # counts on up to _MAX_TERMS
    terms, left, finished = 0, idx.size, 0
    # a runaway series overflows to inf/nan, never stops and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_MAX_TERMS):
            # t_{n+1} = t_n r_n z and d t_{n+1}/dz = (n+1) t_n r_n
            ratio = np.array([(a + n) * (b + n) / ((c + n) * (n + 1)) for a, b, c in sets])
            step = ratio[set_idx] * term
            dtotal += (n + 1) * step
            term = step * zs
            total += term
            mag = np.abs(term)
            size += mag
            dsize += (n + 1) * mag
            streak += 1
            streak *= mag <= _REL_EPS * np.abs(total)
            done = np.flatnonzero(streak == 3)
            if done.size:
                # |d t_{n+1}/dz| = (n+1)|t_{n+1}|/z
                for out, arr in zip(outs, (total[done], dtotal[done], size[done],
                                           dsize[done] / zs[done])):
                    out[idx[done]] = arr
                terms += (n + 1) * done.size
                left -= done.size
                if not left:
                    return terms
                term[done] = 0.0  # so the streak runs on past 3
                finished += done.size
                if 2 * finished >= idx.size:
                    live = streak < 3
                    idx, set_idx, zs, term, total, dtotal, size, dsize, streak = (
                        arr[live] for arr in (idx, set_idx, zs, term, total, dtotal, size,
                                              dsize, streak))
                    finished = 0
    k = np.argmax(streak < 3)
    raise ConvergenceError(f"2F1 series did not converge in {_MAX_TERMS} terms "
                           f"at (a, b, c) = {sets[set_idx[k]]}, z = {zs[k]}")


def _hyp2f1_transformed(sets: list, w: np.ndarray) -> tuple:
    """z -> 1-z linear transformation (DLMF 15.8.4) over w = 1 - z.

    Caller guarantees c-a-b off integers.  The log-Gamma prefactors of all
    sets come from one ``log_gamma`` call, and the w-series of all sets are
    summed in one call.  Returns F, dF/dz, sum|t_n| and sum|dt_n/dz|, each
    of shape (sets, points), and the series length.
    """
    # both terms are prefactor * w^s * 2F1(w): s = 0 for the analytic one;
    # prefactor = Gamma(c) Gamma(+-s) / (Gamma(p) Gamma(q)) for the log-Gamma
    # arguments (c, +-s, p, q)
    plan, args = [], []  # (set, s, series parameters), log-Gamma arguments
    for i, (a, b, c) in enumerate(sets):
        s = c - a - b
        # the analytic term vanishes when c-a or c-b is a non-positive
        # integer (1/Gamma pole), the other one when a or b is
        if not (_is_nonpositive_int(c - a) or _is_nonpositive_int(c - b)):
            plan.append((i, 0.0, (a, b, a + b - c + 1.0)))
            args.append((c, s, c - a, c - b))
        if not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
            plan.append((i, s, (c - a, c - b, s + 1.0)))
            args.append((c, -s, a, b))
    parts = np.empty((4, len(plan), w.size), dtype=complex)
    terms = _gauss_series([p[2] for p in plan], w, parts, np.arange(parts[0].size)) if plan else 0
    # only exp() of the log-Gamma sums is used, so the branch does not matter
    lg = log_gamma(np.reshape(args, (-1, 4)))
    coeffs = np.exp(lg[:, 0] + lg[:, 1] - lg[:, 2] - lg[:, 3]).tolist()
    out = np.zeros((4, len(sets), w.size), dtype=complex)
    for (i, s, _), coeff, f, d, size, dsize in zip(plan, coeffs, *parts):
        w_s = np.exp(s * np.log(w))
        scale = abs(coeff) * np.abs(w_s)
        # d/dz = -d/dw of w^s F(w)
        out[:, i] += (coeff * w_s * f, -(coeff * w_s * (s * f / w + d)),
                      scale * size, scale * (abs(s) * size / w + dsize))
    return (out[0], out[1], out[2].real, out[3].real), terms


def hyp2f1_ex(a, b, c, z, one_minus_z=None) -> Hyp2F1Result:
    """2F1 and dF/dz with diagnostics, for one or several (a, b, c) over an array of z.

    a, b and c are complex scalars, or 1-D sequences of one length, one
    parameter set per entry.  Points with z <= 1/2 use the Gauss series; the
    rest use the z -> 1-z transformation.  ``one_minus_z`` lets callers who
    know 1-z to full precision (e.g. from a stable sigmoid) avoid the
    cancellation in computing it from z when z is close to 1.
    """
    batched = max(np.ndim(a), np.ndim(b), np.ndim(c)) > 0
    sets = [tuple(map(complex, p)) for p in np.broadcast(*np.atleast_1d(a, b, c))]
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    if one_minus_z is None:
        w = 1.0 - z
    else:
        w = np.broadcast_to(np.asarray(one_minus_z, dtype=float), shape).ravel()
        bad = np.abs((1.0 - z) - w) > 1e-9
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"one_minus_z = {w[i]} inconsistent with z = {z[i]}")
    outside = ~((z >= 0.0) & (w > 0.0))
    if outside.any():
        raise DomainError(
            f"2F1 kernel supports real z in [0, 1), got z = {z[np.argmax(outside)]}"
        )
    for _, _, c in sets:
        if _is_nonpositive_int(c):
            raise DomainError(f"2F1 pole: c = {c} is a non-positive integer")
    # 2F1 = 1 and dF/dz = ab/c at z = 0, and everywhere when a or b is 0
    value, deriv = np.ones((2, len(sets), z.size), dtype=complex)
    deriv[:] = [[a * b / c] for a, b, c in sets]
    size, dsize = np.ones(value.shape), np.abs(deriv)  # sum|t_n| and sum|dt_n/dz|
    out = value, deriv, size, dsize
    terms, degraded = 0, np.zeros(len(sets), dtype=bool)
    live = [i for i, (a, b, _) in enumerate(sets) if a != 0 and b != 0]
    near, far = (z > 0.0) & (z <= 0.5), z > 0.5
    if live and near.any():
        at = np.add.outer(np.multiply(live, z.size), np.flatnonzero(near)).ravel()
        terms += _gauss_series([sets[i] for i in live], z[near], out, at)
    if live and far.any():
        # logarithmic case (c-a-b within _DEGENERATE_TOL of an integer):
        # evaluate at c shifted so c-a-b sits exactly +/- _PERTURB away from
        # the integer, and average the two
        rows, shifted = [], []
        for i in live:
            a, b, c = sets[i]
            s = c - a - b
            n_int = round(s.real)
            degraded[i] = abs(s.imag) < _DEGENERATE_TOL and abs(s - n_int) < _DEGENERATE_TOL
            c_int = a + b + n_int
            rows.append(len(shifted))
            shifted += ([(a, b, c_int + _PERTURB), (a, b, c_int - _PERTURB)] if degraded[i]
                        else [(a, b, c)])
        res, n = _hyp2f1_transformed(shifted, w[far])
        for i, r in zip(live, rows):
            for o, x in zip(out, res):
                o[i, far] = 0.5 * (x[r] + x[r + 1]) if degraded[i] else x[r]
        terms += n
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.stack([size / np.abs(value), dsize / np.abs(deriv)])
    if degraded.any():
        # a degraded pair cancels by design, and its flag says so
        bounds[:, degraded[:, None] & far] = 1.0
    # dF/dz = 0 exactly where a or b is 0: fmax skips the NaN of 0/0
    bound, dz_bound = np.fmax.reduce(bounds, axis=(1, 2), initial=1.0).tolist()
    if max(bound, dz_bound) * np.finfo(float).eps > _DIGITS_TOL:
        k, i, j = np.unravel_index(np.nanargmax(bounds), bounds.shape)
        raise PrecisionError(f"2F1 series cancels: sum |t_n| is {bounds[k, i, j]:.3g} times "
                             f"|{('F', 'dF/dz')[k]}| at (a, b, c) = {sets[i]}, z = {z[j]}; "
                             "fewer than 12 significant digits hold")
    shape = ((len(sets),) if batched else ()) + shape
    return Hyp2F1Result(value.reshape(shape)[()], bool(degraded.any()), terms,
                        deriv.reshape(shape)[()], bound, dz_bound)


def hyp2f1(a, b, c, z, one_minus_z=None):
    """Gauss hypergeometric 2F1(a, b; c; z) for complex parameters, z in [0,1)."""
    return hyp2f1_ex(a, b, c, z, one_minus_z).value
