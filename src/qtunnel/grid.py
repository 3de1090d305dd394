"""The package's one 5-point stencil (a second derivative), running integral
and quadrature rule, on numpy arrays: apart from ``core``, so that runs which
build no grid (rect, sweep) never import numpy.
"""

from __future__ import annotations

import numpy as np

# the 5-point second-derivative stencil over uniform samples, as coefficients
# of y[i-2..i+2] over 12 h^2; the first two points use one-sided closures and
# the last two their mirror images.
_CENTRAL = (-1.0, 16.0, -30.0, 16.0, -1.0)
_EDGES = ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0), (10.0, -15.0, -4.0, 14.0, -6.0, 1.0))


def derivative_5pt(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of samples spaced by h along the last axis.

    4th-order central stencil inside, one-sided 6-sample closures of the same
    order at the first and last two points: exact up to degree 4.  Needs at
    least 6 samples.
    """
    denom = 12.0 * h * h
    out = np.empty_like(y)
    # sample axis first, so that y[j] is sample j of every row
    y, d = np.moveaxis(y, -1, 0), np.moveaxis(out, -1, 0)
    d[2:-2] = _weighted_sum(_CENTRAL, [y[j:len(y) - 4 + j] for j in range(5)]) / denom
    for i, edge in enumerate(_EDGES):
        d[i] = _weighted_sum(edge, y) / denom
        d[-1 - i] = _weighted_sum(edge, y[::-1]) / denom
    return out


def _weighted_sum(coefficients, terms):
    """sum(c * t) left to right (zip stops at the last c).  c * t is exact for
    c = +-1, so this rounds like the stencil written out."""
    total = coefficients[0] * terms[0]
    for c, t in zip(coefficients[1:], terms[1:]):
        total = total + c * t
    return total


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples y spaced by h along the last axis, one
    value per sample (0 first).

    Each even interval is h(5 y_i + 8 y_i+1 - y_i+2)/12, the integral of the
    parabola through it and its right neighbour; each odd interval, and the
    last one, uses the mirror image through its left neighbour.  Each pair of
    intervals is Simpson's rule, so the last value is composite Simpson with
    Cartwright's correction for an odd last interval.  Needs at least 3
    samples.
    """
    n = y.shape[-1]
    left, mid, right = y[..., 0:n - 2:2], y[..., 1:n - 1:2], y[..., 2::2]
    out = np.empty(y.shape)
    out[..., 0] = 0.0
    # the intervals' pieces, then their running sum, in place
    pieces = out[..., 1:]
    pieces[..., :-1:2] = 5.0 * left + 8.0 * mid - right
    pieces[..., 1::2] = 5.0 * right + 8.0 * mid - left
    pieces[..., -1] = 5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]
    pieces *= h / 12.0
    np.cumsum(pieces, axis=-1, out=pieces)
    return out


# the 12 positive nodes of the 24-node Gauss-Legendre rule on [-1, 1] and their
# weights, to the bit of leggauss(24), which needs LAPACK; mirrored below
_HALF_24 = np.array((
    (0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
     0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
     0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
    (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
     0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
     0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869),
))
_LEGENDRE_24 = np.hstack((_HALF_24[:, ::-1] * [[-1.0], [1.0]], _HALF_24))


def legendre_nodes(lo: float, hi: float, panels: int = 1) -> np.ndarray:
    """The nodes of the 24-node Gauss-Legendre rule (DLMF 3.5(v)) on ``panels``
    equal panels of [lo, hi], node i of every panel before node i + 1."""
    half = 0.5 * (hi - lo) / panels
    return (lo + half * (_LEGENDRE_24[0][:, None] + (2.0 * np.arange(panels) + 1.0))).ravel()


def legendre_sum(y: np.ndarray, lo: float, hi: float) -> float | np.ndarray:
    """Integral over [lo, hi] from the values ``y`` at ``legendre_nodes(lo, hi,
    panels)``, a value or a row of integrands' values per node: exact up to
    degree 47 on each panel.  The panels are summed node by node before the
    weights apply: one panel is half * (w @ y)."""
    w = _LEGENDRE_24[1]
    panels = len(y) // w.size
    half = 0.5 * (hi - lo) / panels
    return half * (w @ y.reshape(w.size, panels, *y.shape[1:]).sum(axis=1))
