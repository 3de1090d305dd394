"""Airy functions Ai, Ai', Bi, Bi' on real arrays, on numpy alone.

The exact solutions of the linearized problem in each WKB patch window
(DLMF 9.2).  Maclaurin series (DLMF 9.4) with a cancellation guard, and
``core``'s Gauss-Legendre rule on Ai's integral (DLMF 9.5) where the series
for Ai cancels.

Kept apart from ``wkb``: a run without cached bytecode compiles every module
it imports, and CPython's parser allocates its token records in powers of
two, so one module of more than 4,096 tokens costs ~240 KB more at its
compile than two smaller ones.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DIGITS_TOL, gauss_legendre
from .errors import PrecisionError

# the Airy series stops once its last term is below this share of the first
_REL_EPS = 1e-16
# Ai(0) and -Ai'(0) (DLMF 9.2.3, 9.2.4)
_AI0, _AIP0 = 0.355028053887817239260, 0.258819403792806798405
# the order-k term of f, g, f', g' is the order-(k - 1) term times z^3 over
# (3k + s0)(3k + s1), with s0 and s1 the two rows below
_AIRY_SHIFTS = np.array([[[-1], [0], [-3], [-2]], [[0], [1], [-1], [0]]])


def airy(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ai, Ai', Bi, Bi' on a 1-d real array z with |z| < 100.

    The Maclaurin series Ai = c1 f - c2 g, Bi = sqrt(3) (c1 f + c2 g) and
    their derivatives (DLMF 9.4.1-9.4.2) run in powers of z^3 until the last
    term at the largest |z| is below _REL_EPS of the first.  Below z = -2 the
    series cancel: the same series at |z| sum the |terms|, and where that
    sum times the double epsilon passes DIGITS_TOL of max(|Ai|, |Bi|) (or
    of max(|Ai'|, |Bi'|); neither pair has a common zero), PrecisionError is
    raised.  On [-2, 0) the ratio stays below 10 (Bi(2)/0.34).  For z >= 2,
    where c1 f - c2 g cancels, Ai is e^(-zeta) z^(-1/4)/pi int_0^inf exp(-u^2)
    cos(u^3/(3 z^(3/4))) du (DLMF 9.5.6, zeta = 2 z^(3/2)/3, t = u z^(-1/4)),
    by 24-node Gauss-Legendre on 4 panels of u in [0, 6.5] (e^(-6.5^2) =
    4.5e-19), and Ai' follows from the Wronskian Ai Bi' - Ai' Bi = 1/pi.
    """
    z = np.asarray(z, dtype=float)
    top = float(np.max(np.abs(z), initial=0.0))
    if not top < 100.0:  # Bi leaves double range past z = 104
        raise PrecisionError(f"Airy argument |z| = {top:.6g}: the kernel needs |z| < 100")
    n, low = z.size, z < -2.0
    x = np.concatenate((z, -z[low]))  # the values, then the sums of |terms| below -2
    x3 = x * x * x
    # order-1 terms and sums of f, g, f', g'
    term = np.array([x3, x3 * x, x * x, x3]) * [[1.0 / 6.0], [1.0 / 12.0], [0.5], [1.0 / 3.0]]
    total = term + [[1.0], [0.0], [0.0], [1.0]]
    total[1] += x
    k, rel = 1, 1.0
    while rel > _REL_EPS:  # the last order; f' converges last
        k += 1
        rel *= top**3 / ((3 * k - 3) * (3 * k - 1))
    ks = 3.0 * np.arange(2, k + 1)[:, None, None]
    for d in 1.0 / ((ks + _AIRY_SHIFTS[0]) * (ks + _AIRY_SHIFTS[1])):
        term *= x3
        term *= d
        total += term
    c1f, c2g = _AI0 * total[0::2], _AIP0 * total[1::2]
    (ai, aip), (bi, bip) = c1f[:, :n] - c2g[:, :n], math.sqrt(3.0) * (c1f[:, :n] + c2g[:, :n])
    # per point below -2, the larger ratio of Bi's sum of |terms| (sqrt(3)
    # times Ai's) to max(|Ai|, |Bi|) and to max(|Ai'|, |Bi'|)
    ratio = np.max(math.sqrt(3.0) * (c1f[:, n:] + c2g[:, n:]) / np.maximum(
        np.abs([ai[low], aip[low]]), np.abs([bi[low], bip[low]])), axis=0)
    bad = ~(ratio <= DIGITS_TOL / np.finfo(float).eps)
    if bad.any():
        i = int(np.argmax(bad))
        raise PrecisionError(f"Airy series cancel at z = {z[low][i]:.6g}: the sum of |terms| "
                             f"is {ratio[i]:.3g} times the value; fewer than 12 digits hold")
    far = z >= 2.0
    if far.any():
        zf = z[far]
        ai[far] = np.exp(-2.0 / 3.0 * zf**1.5) * zf**-0.25 / math.pi * gauss_legendre(
            lambda u: np.exp(-u * u)[:, None] * np.cos(u[:, None] ** 3 / (3.0 * zf**0.75)),
            0.0, 6.5, panels=4)
        aip[far] = (ai[far] * bip[far] - 1.0 / math.pi) / bi[far]
    return ai, aip, bi, bip
