"""Gauss hypergeometric kernel for complex parameters, on numpy alone.

* 2F1 on real z in [0, 1), for one or several parameter sets (a, b, c) over
  one array of z, via the direct Gauss series for z <= 1/2 and the two-term
  z -> 1-z linear transformation for z > 1/2, so convergence stays geometric
  with ratio <= 1/2 (DLMF 15.2, 15.8),
* its z-derivative, summed term by term from the same series,
* complex log-Gamma for the transformation's prefactors: Stirling's series
  after a recurrence shift, with reflection for Re z < 1/2 (DLMF 5.5, 5.11).

All series of a call, the direct ones on z <= 1/2 and both w-series of the
transformation on z > 1/2, are laid out as flattened (series, point) pairs
and summed in equal chunks of at most 8,192 pairs, one loop over the orders
per chunk; a pair's bits do not depend on its chunk.  A pair whose
cancellation bound sum|t_n|/|F| times the double epsilon passes 1e-11, or
whose F or dF/dz is not a finite double, raises ``PrecisionError``; a
series whose terms overflow raises ``ConvergenceError``.

Pure functions, no state; thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PrecisionError

_MAX_TERMS = 10_000
# (series, point) pairs per loop over the orders: the loop's working arrays
# for a chunk (~160 bytes a pair, ~1.3 MB) stay in a 2 MB L2 cache, and do
# not grow with the call's grid
_CHUNK_PAIRS = 8192
# orders between checks that every sum is still finite
_FINITE_EVERY = 64
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


def _gauss_series(series: list, outs: tuple, name) -> int:
    """Direct Gauss series and its term-by-term z-derivative, for every entry
    of ``series``.

    An entry is ((a, b, c), x, at): the parameters, c off the poles; the
    points x in (0, 1/2] to sum at; and, for each point, its flat index
    into the four arrays ``outs``.  The (series, point) pairs lie series
    after series and are split into equal chunks of at most _CHUNK_PAIRS
    pairs, each summed by one loop over the orders (``_sum_chunk``).  Each
    pair's arithmetic is its own, so the split changes no bit of ``outs``.
    ``name(i)`` describes flat index i for a ``ConvergenceError``.  Returns
    the series length summed over the pairs.
    """
    params = [p for p, _, _ in series]
    sizes = np.array([x.size for _, x, _ in series])
    ends = np.cumsum(sizes)
    # z as complex: step * zs would cast it at every order, to the same product
    zs = np.concatenate([x for _, x, _ in series]).astype(complex)
    idx = np.concatenate([at for _, _, at in series])
    chunks = -(-zs.size // _CHUNK_PAIRS)
    edges = [k * zs.size // chunks for k in range(chunks + 1)]
    terms = 0
    for lo, hi in zip(edges, edges[1:]):
        # each series' pairs inside [lo, hi)
        counts = np.minimum(ends, hi) - np.maximum(ends - sizes, lo)
        inside = counts > 0
        terms += _sum_chunk([p for p, k in zip(params, inside) if k], counts[inside],
                            zs[lo:hi], idx[lo:hi], outs, name)
    return terms


def _sum_chunk(params: list, counts: np.ndarray, zs: np.ndarray, idx: np.ndarray,
               outs: tuple, name) -> int:
    """One loop over the orders for a chunk of ``_gauss_series``: the pairs
    of series k are the next ``counts[k]`` entries of the complex points
    ``zs`` and flat indices ``idx``, with parameters ``params[k]``.

    The ratio of consecutive coefficients is one Python complex per series
    and order, repeated over the series' block of live pairs.  Each pair
    stops on its own rule (three terms in a row below _REL_EPS of its sum)
    and adds exact zeros from then on.  The finished pairs leave the working
    set once they are half of it, and only then, or at the end, their F,
    dF/dz, sum|t_n| and sum|dt_n/dz| go to ``outs``.  A sum|t_n| that is no
    longer finite (a term or the sum overflowed), checked then and every
    _FINITE_EVERY orders, raises ``ConvergenceError``, as does a pair still
    live after _MAX_TERMS orders.
    """
    term = np.ones(zs.size, dtype=complex)
    total = term.copy()
    dtotal = np.zeros(zs.size, dtype=complex)
    size, dsize = np.ones(zs.size), np.zeros(zs.size)
    streak = np.zeros(zs.size, dtype=np.int16)  # counts on up to _MAX_TERMS
    terms, left, finished = 0, zs.size, 0
    # a runaway series overflows to inf/nan and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_MAX_TERMS):
            # t_{n+1} = t_n r_n z and d t_{n+1}/dz = (n+1) t_n r_n
            ratio = np.array([(a + n) * (b + n) / ((c + n) * (n + 1)) for a, b, c in params])
            step = ratio.repeat(counts) * term
            dtotal += (n + 1) * step
            term = step * zs
            total += term
            mag = np.abs(term)
            size += mag
            dsize += (n + 1) * mag
            streak += 1
            streak *= mag <= _REL_EPS * np.abs(total)
            done = np.flatnonzero(streak == 3)
            compact = False
            if done.size:
                terms += (n + 1) * done.size
                left -= done.size
                finished += done.size
                term[done] = 0.0  # so the streak runs on past 3
                compact = not left or 2 * finished >= idx.size
            if compact or n % _FINITE_EVERY == _FINITE_EVERY - 1:
                finite = np.isfinite(size)
                if not finite.all():
                    raise ConvergenceError("2F1 series terms overflow a double at "
                                           + name(idx[np.argmin(finite)]))
            if not compact:
                continue
            gone = streak >= 3
            at = idx[gone]
            # |d t_{n+1}/dz| = (n+1)|t_{n+1}|/z
            for out, arr in zip(outs, (total[gone], dtotal[gone], size[gone],
                                       dsize[gone] / zs[gone].real)):
                out[at] = arr
            if not left:
                return terms
            live = ~gone
            counts = np.add.reduceat(live, np.cumsum(counts) - counts)
            params = [p for p, k in zip(params, counts) if k]
            counts = counts[counts > 0]
            idx, zs, term, total, dtotal, size, dsize, streak = (
                arr[live] for arr in (idx, zs, term, total, dtotal, size, dsize, streak))
            finished = 0
    raise ConvergenceError(f"2F1 series did not converge in {_MAX_TERMS} terms "
                           f"at {name(idx[np.argmax(streak < 3)])}")


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
    # row k < len(sets) holds set k, row len(sets) + j the j-th w-series
    rows = (len(sets) + len(plan), z.size)
    value, deriv = np.ones((2, *rows), dtype=complex)
    # 2F1 = 1 and dF/dz = ab/c at z = 0, and everywhere when a or b is 0
    deriv[:len(sets)] = [[a * b / c] for a, b, c in sets]
    size, dsize = np.ones(rows), np.abs(deriv)  # sum|t_n| and sum|dt_n/dz|
    out = value, deriv, size, dsize
    # one series loop: the direct series of the live sets on z <= 1/2 and
    # every w-series on z > 1/2
    series = [(sets[i], z[near], i * z.size + near) for i in live if near.size]
    series += [(p, w[far], (len(sets) + j) * z.size + far)
               for j, (_, _, p, _) in enumerate(plan)]
    owner = list(range(len(sets))) + [copies[r] for r, *_ in plan]

    def name(k):
        row, j = divmod(int(k), z.size)
        return f"(a, b, c) = {sets[owner[row]]}, z = {z[j]}"

    terms = _gauss_series(series, [o.reshape(-1) for o in out], name) if series else 0
    if plan:
        # only exp() of the log-Gamma sums is used, so the branch does not matter
        lg = log_gamma([args for *_, args in plan])
        wf = w[far]
        acc = np.zeros((4, len(copies), far.size), dtype=complex)
        # an overflowing prefactor makes F non-finite, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.exp(lg[:, 0] + lg[:, 1] - lg[:, 2] - lg[:, 3]).tolist()
            for j, ((r, s, _, _), coeff) in enumerate(zip(plan, coeffs)):
                f, d, t, dt = (o[len(sets) + j, far] for o in out)
                # complex, like f: a complex division by w rounds differently
                # from a real one, and dz_bound's bits rest on the former
                t = t.astype(complex)
                w_s = np.exp(s * np.log(wf))
                scale = abs(coeff) * np.abs(w_s)
                # d/dz = -d/dw of w^s F(w)
                acc[:, r] += (coeff * w_s * f, -(coeff * w_s * (s * f / wf + d)),
                              scale * t, scale * (abs(s) * t / wf + dt))
            acc = acc[0], acc[1], acc[2].real, acc[3].real
            for i in live:
                r = copies.index(i)  # the set's first copy
                for o, x in zip(out, acc):
                    o[i, far] = 0.5 * (x[r] + x[r + 1]) if degraded[i] else x[r]
    value, deriv = value[:len(sets)], deriv[:len(sets)]
    size, dsize = size[:len(sets)], dsize[:len(sets)]
    finite = np.isfinite(value) & np.isfinite(deriv)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise PrecisionError(f"2F1 overflows at (a, b, c) = {sets[i]}, z = {z[j]}: "
                             "F or dF/dz is not a finite double")
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.stack([size / np.abs(value), dsize / np.abs(deriv)])
    if degraded.any():
        # a degraded pair cancels by design, and its flag says so
        bounds[:, degraded[:, None] & (z > 0.5)] = 1.0
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
