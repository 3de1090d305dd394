"""Gauss hypergeometric kernel for complex parameters.

scipy has no 2F1 with complex a, b, c, so the library carries its own:

* 2F1 on real z in [0, 1), for one (a, b, c) over a whole array of z at
  once, via the direct Gauss series for z <= 1/2 and the two-term
  z -> 1-z linear transformation (with log-Gamma prefactors from
  ``scipy.special.loggamma``, loaded on that branch only) for z > 1/2, so
  convergence stays geometric with ratio <= 1/2 (DLMF 15.2, 15.8),
* its z-derivative, summed term by term from the same series.

Pure functions, no state; thread-safe.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_MAX_TERMS = 10_000
_REL_EPS = 1e-16
# |c-a-b| distance from an integer below which the z->1-z transformation is
# ill-conditioned and the perturb-and-average fallback is used instead.
_DEGENERATE_TOL = 1e-6
_PERTURB = 1e-6


def _is_nonpositive_int(z: complex, tol: float = 1e-14) -> bool:
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


@dataclass(frozen=True)
class Hyp2F1Result:
    """Value, z-derivative and diagnostics of a 2F1 evaluation.

    For an array of z, ``value`` and ``dz`` are arrays of its shape, ``terms``
    is the series length summed over the points and ``degraded`` is true if
    any point is degraded.
    """

    value: complex | np.ndarray
    degraded: bool
    terms: int
    dz: complex | np.ndarray


def _gauss_series(a: complex, b: complex, c: complex,
                  z: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Direct Gauss series and its term-by-term z-derivative over a z array.

    Caller guarantees a non-empty z in [0, 1/2] and c off the poles.  The
    ratio of consecutive coefficients is one scalar per order, so an order
    costs a few array operations.  Each point stops on its own rule (three
    terms in a row below _REL_EPS of its sum) and then leaves the working set.
    Returns (F, dF/dz, terms summed over the points).
    """
    value = np.empty(z.size, dtype=complex)
    deriv = np.empty(z.size, dtype=complex)
    idx = np.arange(z.size)
    term = np.ones(z.size, dtype=complex)
    total = term.copy()
    dtotal = np.zeros(z.size, dtype=complex)
    streak = np.zeros(z.size, dtype=np.int8)
    terms = 0
    # a runaway series overflows to inf/nan, never stops and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_MAX_TERMS):
            # t_{n+1} = t_n r_n z and d t_{n+1}/dz = (n+1) t_n r_n
            step = ((a + n) * (b + n) / ((c + n) * (n + 1))) * term
            dtotal += (n + 1) * step
            term = step * z
            total += term
            streak = (streak + 1) * (np.abs(term) <= _REL_EPS * np.abs(total))
            done = streak >= 3
            if done.any():
                value[idx[done]] = total[done]
                deriv[idx[done]] = dtotal[done]
                terms += (n + 1) * int(np.count_nonzero(done))
                live = ~done
                if not live.any():
                    return value, deriv, terms
                idx, z, term, total, dtotal, streak = (
                    arr[live] for arr in (idx, z, term, total, dtotal, streak))
    raise ConvergenceError(
        f"2F1 series did not converge in {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z[0]})"
    )


def _hyp2f1_transformed(a: complex, b: complex, c: complex,
                        w: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """z -> 1-z linear transformation (DLMF 15.8.4) over w = 1 - z.

    Caller guarantees c-a-b off integers.  The log-Gamma prefactors are
    computed once for the whole array.  Returns (F, dF/dz, terms).
    """
    from scipy.special import loggamma

    s = c - a - b
    value = np.zeros(w.size, dtype=complex)
    deriv = np.zeros(w.size, dtype=complex)
    terms = 0
    # only exp() of the log-Gamma sums is used, so the branch does not matter
    lg_c = loggamma(c)
    # coefficient of the analytic term; vanishes when c-a or c-b is a
    # non-positive integer (1/Gamma pole)
    if not (_is_nonpositive_int(c - a) or _is_nonpositive_int(c - b)):
        coeff1 = cmath.exp(lg_c + loggamma(s) - loggamma(c - a) - loggamma(c - b))
        f1, d1, n1 = _gauss_series(a, b, a + b - c + 1.0, w)
        value += coeff1 * f1
        deriv -= coeff1 * d1
        terms += n1
    if not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
        coeff2 = cmath.exp(lg_c + loggamma(-s) - loggamma(a) - loggamma(b))
        f2, d2, n2 = _gauss_series(c - a, c - b, s + 1.0, w)
        w_s = np.exp(s * np.log(w))
        value += coeff2 * w_s * f2
        # d/dz = -d/dw of w^s F2(w)
        deriv -= coeff2 * w_s * (s * f2 / w + d2)
        terms += n2
    return value, deriv, terms


def hyp2f1_ex(a: complex, b: complex, c: complex, z,
              one_minus_z=None) -> Hyp2F1Result:
    """2F1 and dF/dz with diagnostics, for one (a, b, c) over an array of z.

    Points with z <= 1/2 use the Gauss series; the rest use the z -> 1-z
    transformation.  A scalar z gives scalar ``value`` and ``dz``.
    ``one_minus_z`` lets callers who know 1-z to full precision (e.g. from a
    stable sigmoid) avoid the cancellation in computing it from z when z is
    close to 1.
    """
    a, b, c = complex(a), complex(b), complex(c)
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
    if _is_nonpositive_int(c):
        raise DomainError(f"2F1 pole: c = {c} is a non-positive integer")
    # 2F1 = 1 and dF/dz = ab/c at z = 0, and everywhere when a or b is 0
    value = np.ones(z.size, dtype=complex)
    deriv = np.full(z.size, a * b / c)
    terms, degraded = 0, False
    nontrivial = a != 0 and b != 0
    near = nontrivial & (z > 0.0) & (z <= 0.5)
    if near.any():
        value[near], deriv[near], terms = _gauss_series(a, b, c, z[near])
    far = nontrivial & (z > 0.5)
    if far.any():
        s = c - a - b
        dist = abs(s - round(s.real)) if abs(s.imag) < _DEGENERATE_TOL else _DEGENERATE_TOL * 2
        if dist < _DEGENERATE_TOL:
            # logarithmic case: evaluate at c shifted so c-a-b sits exactly
            # +/- _PERTURB away from the integer, and average the two
            c_int = a + b + round(s.real)
            up, d_up, n1 = _hyp2f1_transformed(a, b, c_int + _PERTURB, w[far])
            dn, d_dn, n2 = _hyp2f1_transformed(a, b, c_int - _PERTURB, w[far])
            value[far], deriv[far] = 0.5 * (up + dn), 0.5 * (d_up + d_dn)
            terms += n1 + n2
            degraded = True
        else:
            value[far], deriv[far], n = _hyp2f1_transformed(a, b, c, w[far])
            terms += n
    return Hyp2F1Result(value.reshape(shape)[()], degraded, terms, deriv.reshape(shape)[()])


def hyp2f1(a: complex, b: complex, c: complex, z, one_minus_z=None):
    """Gauss hypergeometric 2F1(a, b; c; z) for complex parameters, z in [0,1)."""
    return hyp2f1_ex(a, b, c, z, one_minus_z).value

