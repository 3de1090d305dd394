"""Gauss hypergeometric kernel for complex parameters, on numpy alone.

* 2F1 on real z in [0, 1), for several parameter sets (a, b, c) over one
  array of z, via the direct Gauss series for z <= 1/2 and the two-term
  z -> 1-z linear transformation for z > 1/2, so convergence stays geometric
  with ratio <= 1/2 (DLMF 15.2, 15.8),
* its z-derivative, from the same Horner pass over the series,
* complex log-Gamma for the transformation's prefactors: Stirling's series
  after a recurrence shift, with reflection for Re z < 1/2 (DLMF 5.5, 5.11).

All series of a call, the direct ones on z <= 1/2 and both w-series of the
transformation on z > 1/2, are laid out as flattened (series, point) pairs.
Each pair's length N is fixed before any sum, from its own set and z: every
term of F past N, and of dF/dz relative to its first term, is below 1e-17.
The pairs are sorted longest first and summed by Horner's rule in one
pass; a pair's bits do not depend on the call's other points, so callers
bound the working set by splitting the grid.  The result carries each
pair's cancellation bounds sum|t_n|/|F| and sum|dt_n/dz|/|dF/dz|, inf
where F or dF/dz is not a finite double: the bounds are the per-pair
verdict, which the caller reads and acts on.  A series whose coefficients
overflow raises ``ConvergenceError``.

Pure functions, no state; thread-safe.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

_MAX_TERMS = 10_000
# a pair's series stops where every later term of F, and of dF/dz relative
# to its first term, stays below this
_TAIL = 1e-17
# orders per step of the coefficient build
_ORDERS = 64
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


class Hyp2F1Result(NamedTuple):
    """Value, z-derivative and diagnostics of a 2F1 evaluation.

    ``value`` and ``dz`` have shape (sets, points).  ``terms`` is the series
    length summed over the (set, point) pairs and ``degraded`` is true if
    any pair is degraded.  ``bounds``, of shape (2, sets, points), holds
    each pair's sum|t_n| / |F| and sum|dt_n/dz| / |dF/dz| (on the z > 1/2
    branch, over the terms of both series times their prefactors), 1.0 on
    degraded pairs and where dF/dz is exactly 0, and inf in both rows where
    F or dF/dz is not a finite double; times the double epsilon, each
    estimates the relative rounding error on z <= 1/2, for the caller to
    judge.  On z > 1/2 the log-Gamma prefactors add rounding that the
    bounds omit, up to ~80 eps times the bound (x = 8, z = 0.99 for the
    mode sets (1 - ix, -ix; 1 + iy)).
    """

    value: np.ndarray
    degraded: bool
    terms: int
    dz: np.ndarray
    bounds: np.ndarray


def _coefficients(params: list, zmax: np.ndarray):
    """The Gauss series sum c_n z^n of each (a, b, c) in ``params`` as
    sum d_n u^n, u = z / h, with d_n = c_n h^n and h the power of two with
    zmax < h <= 2 zmax, for the series' largest point ``zmax``.

    d_n comes from the ratios c_{n+1} / c_n = (a+n)(b+n) / ((c+n)(n+1)) in
    Python complex arithmetic, times h, so it holds c_n's bits scaled by a
    power of two, and is a double wherever the terms at zmax are.  The
    orders are built _ORDERS at a time until, at the last order K built,
    every series has |c_K| zmax^K and K |c_K| zmax^(K-1) / |c_1| at most
    _TAIL / 2, and (K+1)/K V_K zmax <= 1, where V_k = max(1, (|a|+k)/(k+1))
    max(1, (|b|+k)/(k+Re c)) bounds |c_{j+1}/c_j| for every j >= k and
    does not grow with k.  So no term past K at zmax or below reaches
    _TAIL / 2, and d is set to 0 past each series' K, which changes no
    pair's length.  A coefficient of 0 ends a series.

    Returns d as a (series, orders) array, h, and per series 0, or 1 if a
    coefficient overflows a double before K, or 2 if no K is found within
    _MAX_TERMS orders; a failed series keeps the coefficients before it
    failed.
    """
    h = np.ldexp(1.0, np.frexp(zmax)[1])
    um = zmax / h
    ra, rb, rc = np.array([(abs(a), abs(b), c.real) for a, b, c in params]).T
    d = [np.ones((len(params), 1), dtype=complex)]
    last = np.full(len(params), -1)  # K, or the last order before a failure
    failed = np.zeros(len(params), dtype=int)
    tol = 0.5 * _TAIL
    with np.errstate(all="ignore"):
        for k in range(_ORDERS, _MAX_TERMS + 1, _ORDERS):
            ratio = [[(a + n) * (b + n) / ((c + n) * (n + 1)) for n in range(k - _ORDERS, k)]
                     for a, b, c in params]
            d.append(np.cumprod(np.hstack([d[-1][:, -1:], ratio * h[:, None]]), axis=1)[:, 1:])
            mag = np.abs(d[-1][:, -1])
            small = (mag * um**k <= tol) & (k * mag * um**(k - 1) <= tol * np.abs(d[1][:, 0]))
            v = np.maximum(1.0, (ra + k) / (k + 1)) * np.maximum(1.0, (rb + k) / (k + rc))
            falling = (k + rc > 0.0) & ((k + 1) / k * v * zmax <= 1.0)
            open_ = last < 0
            ends = open_ & ((mag == 0.0) | small & falling)
            # a coefficient that is not finite stays so at every later order
            over = open_ & ~(mag < math.inf)
            last[ends] = k
            last[over] = k - _ORDERS + np.argmin(np.abs(d[-1][over]) < math.inf, axis=1)
            failed[over] = 1
            if (last >= 0).all():
                break
        else:
            failed[last < 0] = 2
    d = np.hstack(d)
    d[np.arange(d.shape[1]) > np.where(last < 0, _MAX_TERMS, last)[:, None]] = 0.0
    return d, h, failed


def _thresholds(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per row of ``_coefficients``' d and h, ascending thresholds
    t_1 <= t_2 <= ... that give a pair at x its length N as the number of
    them below x: the least N such that |c_k| x^k <= _TAIL and
    k |c_k| x^(k-1) <= _TAIL |c_1| for every k > N.

    log2 |c_k| is taken as log2 of the mantissa of |d_k| plus an exact
    integer, so the thresholds have the same bits for every h."""
    mant, exp = np.frexp(np.abs(d[:, 1:]))
    k = np.arange(1, d.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        lc = np.log2(mant) + (exp - (np.frexp(h)[1][:, None] - 1) * k)
        # log2 of the x past which order k's term of F or of dF/dz exceeds
        # its bound; dF/dz's first term (k = 1) always does
        on = np.minimum((math.log2(_TAIL) - lc) / k,
                        (math.log2(_TAIL) + lc[:, :1] - np.log2(k) - lc) / (k - 1))
    on[:, 0] = -math.inf
    # N(x) is the largest k with x past order k or a later one: the count
    # of suffix minima below x
    return np.exp2(np.minimum.accumulate(on[:, ::-1], axis=1)[:, ::-1])


def _gauss_series(series: list, outs: tuple) -> int:
    """Direct Gauss series and its z-derivative, for every entry of ``series``.

    An entry is ((a, b, c), x, at, caller, zs): the parameters, c off the
    poles; the points x in (0, 1/2] to sum at; for each point, its flat
    index into the four arrays ``outs``, which receive F, dF/dz, sum|t_n|
    and sum|dt_n/dz|; and, for error texts only, the caller's set and each
    point's z (for a w-series, the set it transforms and z = 1 - x).  Each
    (series, point) pair's length N is fixed before any sum from its own
    set and x alone (``_coefficients``, ``_thresholds``).
    The pairs are then sorted longest first and summed by Horner's rule in
    one pass (``_horner``), in u = x / h with the scaled coefficients; since
    h is a power of two, the sums have the bits of unscaled ones.  Each
    pair's arithmetic is its own, so the call's other points change no bit
    of its results.  A series whose coefficients overflow, or whose tail is not
    bounded within _MAX_TERMS orders, raises ``ConvergenceError`` naming
    its caller's set and the z of its first point with the longest series
    on the coefficients built.  Returns the series length summed over the
    pairs.
    """
    d, scales, failed = _coefficients([p for p, *_ in series],
                                      np.array([x.max() for _, x, *_ in series]))
    thresholds = _thresholds(d, scales)
    lengths = [np.searchsorted(t, x).astype(np.int16) for t, (_, x, *_) in zip(thresholds, series)]
    for (*_, caller, zs), n, fail in zip(series, lengths, failed):
        if fail:
            i = f"(a, b, c) = {caller}, z = {zs[np.argmax(n)]}"
            raise ConvergenceError(f"2F1 series terms overflow a double at {i}" if fail == 1
                                   else f"2F1 series did not converge in {_MAX_TERMS} terms at {i}")
    # orders x (Re, Im, abs) x series
    table = np.stack([d.real, d.imag, np.abs(d)]).transpose(2, 0, 1).copy()
    ends = np.cumsum([x.size for _, x, *_ in series])
    lengths = np.concatenate(lengths)
    u = np.concatenate([x / h for (_, x, *_), h in zip(series, scales)])
    idx = np.concatenate([at for _, _, at, *_ in series])
    order = np.argsort(-lengths, kind="stable")
    sid = np.searchsorted(ends, order, side="right")
    acc, dacc = _horner(table, sid, u[order], lengths[order])
    dacc /= scales[sid]
    i = idx[order]
    (outs[0].real[i], outs[0].imag[i], outs[2][i]), (outs[1].real[i], outs[1].imag[i],
                                                      outs[3][i]) = acc, dacc
    return int(lengths.sum())


def _horner(table: np.ndarray, sid: np.ndarray, u: np.ndarray, lengths: np.ndarray):
    """Horner's rule for ``_gauss_series``: the pairs at points ``u`` of
    series ``sid``, sorted by their ``lengths`` N, longest first.

    ``table[n]`` holds Re d_n, Im d_n and |d_n| of each series.  From order
    N down to 0, each pair takes p <- p u + d_n and dp <- dp u + p on the
    real and imaginary parts, and s <- s u + |d_n| and ds <- ds u + s, so
    that p ends as F, dp as dF/du, s as sum|t_n| and ds as sum|dt_n/du|.
    The pairs still summing at order n are a prefix of the pairs.  Returns
    (Re F, Im F, s) and (Re dF/du, Im dF/du, ds) as two (3, pairs) arrays.
    """
    acc, dacc = np.zeros((2, 3, u.size))
    top, sets = int(lengths[0]), table.shape[2]
    # the pairs of length top - g come in series order after those longer:
    # the prefix at order n is groups 0..top-n, each of counts[g] pairs
    counts = np.bincount((top - lengths.astype(np.intp)) * sets + sid, minlength=(top + 1) * sets)
    live = np.cumsum(counts.reshape(-1, sets).sum(axis=1)).tolist()
    cycle = np.tile(np.arange(sets), top + 1)
    for n in range(top, -1, -1):
        g = (top - n + 1) * sets
        m = live[top - n]
        p, dp, x = acc[:, :m], dacc[:, :m], u[:m]
        dp *= x
        dp += p
        p *= x
        p += table[n] if sets == 1 else table[n].take(cycle[:g], axis=1).repeat(counts[:g], axis=1)
    return acc, dacc


def _transformed_terms(a, b, c) -> list:
    """The terms of the z -> 1-z linear transformation (DLMF 15.8.4) of one
    set, c-a-b off integers: each is prefactor * w^s * 2F1(w) over w = 1 - z,
    with s = 0 for the analytic one and prefactor = Gamma(c) Gamma(+-s) /
    (Gamma(p) Gamma(q)).  Returns (s, the w-series' (a, b, c), the
    log-Gamma arguments (c, +-s, p, q)) for each term that does not vanish.
    """
    s = c - a - b
    terms = []
    # the analytic term vanishes when c-a or c-b is a non-positive integer
    # (1/Gamma pole), the other one when a or b is
    if not (_is_nonpositive_int(c - a) or _is_nonpositive_int(c - b)):
        terms.append((0.0, (a, b, a + b - c + 1.0), (c, s, c - a, c - b)))
    if not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
        terms.append((s, (c - a, c - b, s + 1.0), (c, -s, a, b)))
    return terms


def hyp2f1_ex(a, b, c, z, w) -> Hyp2F1Result:
    """2F1 and dF/dz with diagnostics, for several (a, b, c) over a 1-D array of z.

    a, b and c are 1-D sequences of one length, one parameter set per entry.
    Points with z <= 1/2 use the Gauss series; the rest use the z -> 1-z
    transformation, in ``w`` = 1 - z, which callers who know it to full
    precision (e.g. from a stable sigmoid) pass so that it does not lose
    digits to the cancellation in 1 - z when z is close to 1.
    """
    sets = [tuple(map(complex, p)) for p in zip(a, b, c, strict=True)]
    z, w = np.asarray(z, dtype=float), np.asarray(w, dtype=float)
    bad = np.abs((1.0 - z) - w) > 1e-9
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"w = {w[i]} inconsistent with z = {z[i]}")
    outside = ~((z >= 0.0) & (w > 0.0))
    if outside.any():
        raise DomainError(
            f"2F1 kernel supports real z in [0, 1), got z = {z[np.argmax(outside)]}"
        )
    for _, _, c in sets:
        if _is_nonpositive_int(c):
            raise DomainError(f"2F1 pole: c = {c} is a non-positive integer")
    live = [i for i, (a, b, _) in enumerate(sets) if a != 0 and b != 0]
    near, far = np.flatnonzero((z > 0.0) & (z <= 0.5)), np.flatnonzero(z > 0.5)
    # the w-series of each live set, or of its two shifted copies, on z > 1/2
    degraded = np.zeros(len(sets), dtype=bool)
    copies, plan = [], []  # each copy's set; (copy, s, parameters, log-Gamma arguments)
    for i in (live if far.size else ()):
        a, b, c = sets[i]
        s = c - a - b
        n_int = round(s.real)
        # logarithmic case (c-a-b within _DEGENERATE_TOL of an integer):
        # evaluate at c shifted so c-a-b sits exactly +/- _PERTURB away from
        # the integer, and average the two
        degraded[i] = abs(s.imag) < _DEGENERATE_TOL and abs(s - n_int) < _DEGENERATE_TOL
        c_int = a + b + n_int
        for c_copy in (c_int + _PERTURB, c_int - _PERTURB) if degraded[i] else (c,):
            plan += [(len(copies), *term) for term in _transformed_terms(a, b, c_copy)]
            copies.append(i)
    # flat work arrays: the (set, point) pairs at k * z.size + point, then
    # each w-series' (series, z > 1/2 point) pairs
    cut = len(sets) * z.size
    value, deriv = np.ones((2, cut + len(plan) * far.size), dtype=complex)
    # 2F1 = 1 and dF/dz = ab/c at z = 0, and everywhere when a or b is 0
    deriv[:cut] = np.repeat([a * b / c for a, b, c in sets], z.size)
    size, dsize = np.ones(value.size), np.abs(deriv)  # sum|t_n| and sum|dt_n/dz|
    out = value, deriv, size, dsize
    # one _gauss_series call: the direct series of the live sets on z <= 1/2
    # and every w-series on z > 1/2
    zn, zf, wf = z[near], z[far], w[far]
    series = [(sets[i], zn, i * z.size + near, sets[i], zn) for i in live if near.size]
    series += [(p, wf, cut + j * far.size + np.arange(far.size), sets[copies[r]], zf)
               for j, (r, _, p, _) in enumerate(plan)]
    terms = _gauss_series(series, out) if series else 0
    w_rows = [o[cut:].reshape(len(plan), far.size) for o in out]
    value, deriv, size, dsize = (o[:cut].reshape(len(sets), z.size) for o in out)
    if plan:
        # only exp() of the log-Gamma sums is used, so the branch does not matter
        lg = log_gamma([args for *_, args in plan])
        acc = np.zeros((4, len(copies), far.size), dtype=complex)
        # an overflowing prefactor makes F non-finite, which its bounds mark
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.exp(lg[:, 0] + lg[:, 1] - lg[:, 2] - lg[:, 3]).tolist()
            for j, ((r, s, _, _), coeff) in enumerate(zip(plan, coeffs)):
                f, d, t, dt = (x[j] for x in w_rows)
                w_s = np.exp(s * np.log(wf))
                scale = abs(coeff) * np.abs(w_s)
                # d/dz = -d/dw of w^s F(w)
                acc[:, r] += (coeff * w_s * f, -(coeff * w_s * (s * f / wf + d)),
                              scale * t, scale * (abs(s) * t / wf + dt))
            acc = acc[0], acc[1], acc[2].real, acc[3].real
            for i in live:
                r = copies.index(i)  # the set's first copy
                for o, x in zip((value, deriv, size, dsize), acc):
                    o[i, far] = 0.5 * (x[r] + x[r + 1]) if degraded[i] else x[r]
        # copies, so that the result does not hold the w-series rows
        value, deriv = value.copy(), deriv.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        # dF/dz and all its terms are 0 exactly where a or b is 0
        bounds = np.stack([size / np.abs(value), np.divide(
            dsize, np.abs(deriv), out=np.ones_like(dsize), where=dsize > 0.0)])
    # a degraded pair cancels by design, and its flag says so
    bounds[:, degraded[:, None] & (z > 0.5)] = 1.0
    bounds[:, ~(np.isfinite(value) & np.isfinite(deriv))] = math.inf
    return Hyp2F1Result(value, bool(degraded.any()), terms, deriv, bounds)
