"""High-precision oracles from the paper's formulas in mpmath alone: it
imports nothing from qtunnel.

``traversal_time`` integrates the rectangular barrier's 1/v, and
``gaussian_moments`` takes the moments of an environment mode's Gaussian
weight, each by ``mpmath.quad``.  ``q_factors`` gives the back-reaction
factors, as follows.

The effective classical particle rolls along x(t) = a (1 + tanh rho t) with
rho = hbar k/(a M), k = sqrt(2 M E)/hbar.  An environment mode of mass m,
frequency omega0 and coupling c y^2 x sees omega(t)^2 = omega0^2 + 2 c x(t)/m,
and its vacuum-matched mode function is

    xi(t) = (2 omega0)^(-1/2) exp[i omega_+ t + i omega_- ln(2 cosh rho t)/rho]
            * 2F1(1 - i omega_-/rho, -i omega_-/rho; 1 + i omega0/rho; z),

z = (1 + tanh rho t)/2, omega_+- = (omega_inf +- omega0)/2 and
omega_inf^2 = omega0^2 + 4 c a/m.  Everything is taken in t: t = artanh(x/a - 1)/rho,
d ln xi/dt = i omega_+ + i omega_- tanh(rho t) + (dF/dz / F) rho/(2 cosh^2 rho t)
with dF/dz = (ab/c) 2F1(a+1, b+1; c+1; z), the oscillator equation gives
d^2 ln xi/dt^2 = -omega^2 - (d ln xi/dt)^2, and xdot = a rho / cosh^2(rho t).  Then

    Q1 = Re(d^2 ln xi/dt^2) / (xdot Im(d ln xi/dt)),
    Q2 = [Im(d^2 ln xi/dt^2) / (2 xdot Im(d ln xi/dt))]^2.
"""

from __future__ import annotations

import mpmath


def q_factors(xs, *, E, a, m, omega0, c, hbar=1.0, M=1.0, dps=40):
    """(Q1, Q2) at each position of ``xs`` (doubles taken exactly) for one
    mode, as lists of mpf computed at ``dps`` digits."""
    with mpmath.workdps(dps):
        E, a, m, omega0, c, hbar, M = map(mpmath.mpf, (E, a, m, omega0, c, hbar, M))
        rho = hbar * (mpmath.sqrt(2 * M * E) / hbar) / (a * M)
        om_inf = mpmath.sqrt(omega0**2 + 4 * c * a / m)
        om_p, om_m = (om_inf + omega0) / 2, (om_inf - omega0) / 2
        pa, pb, pc = 1 - 1j * om_m / rho, -1j * om_m / rho, 1 + 1j * omega0 / rho
        q1s, q2s = [], []
        for x in xs:
            t = mpmath.atanh(mpmath.mpf(x) / a - 1) / rho
            th, sech2 = mpmath.tanh(rho * t), mpmath.sech(rho * t) ** 2
            z = (1 + th) / 2
            F = mpmath.hyp2f1(pa, pb, pc, z)
            dF = pa * pb / pc * mpmath.hyp2f1(pa + 1, pb + 1, pc + 1, z)
            dln = 1j * om_p + 1j * om_m * th + dF / F * rho * sech2 / 2
            om2 = omega0**2 + 2 * c * a * (1 + th) / m
            d2ln = -om2 - dln**2
            xdot = a * rho * sech2
            q1s.append(d2ln.real / (xdot * dln.imag))
            q2s.append((d2ln.imag / (2 * xdot * dln.imag)) ** 2)
        return q1s, q2s


def traversal_time(E, V0, a, hbar=1.0, M=1.0, dps=30):
    """Time to roll across the rectangular barrier [0, a], as an mpf: the
    integral of 1/v by ``mpmath.quad`` at ``dps`` digits.  Inside the barrier
    E - V_tot = M v^2/2 = (hbar^2 beta^2/2M) 4 k^2 beta^2/D^2, so
    1/v = M D/(2 hbar k beta^2) with D = (k^2 + beta^2) cosh(2 beta (a - x))
    + beta^2 - k^2, k = sqrt(2 M E)/hbar and beta = sqrt(2 M (V0 - E))/hbar."""
    with mpmath.workdps(dps):
        E, V0, a, hbar, M = map(mpmath.mpf, (E, V0, a, hbar, M))
        k, beta = mpmath.sqrt(2 * M * E) / hbar, mpmath.sqrt(2 * M * (V0 - E)) / hbar

        def inverse_velocity(x):
            D = (k**2 + beta**2) * mpmath.cosh(2 * beta * (a - x)) + beta**2 - k**2
            return M * D / (2 * hbar * k * beta**2)

        return mpmath.quad(inverse_velocity, [0, a])


def gaussian_moments(alpha, hbar=1.0, dps=30):
    """(<y^2>, <y^4>) as mpf under the mode's weight |phi|^2 ~ exp(-alpha^2 y^2/hbar),
    each moment and the norm by ``mpmath.quad`` at ``dps`` digits.  The weight
    is even, and below e^-144 past y = 12 sqrt(hbar)/alpha, so each integral
    runs over [0, 12 sqrt(hbar)/alpha]."""
    with mpmath.workdps(dps):
        scale = mpmath.sqrt(hbar) / mpmath.mpf(alpha)

        def moment(n):
            return mpmath.quad(lambda y: y**n * mpmath.exp(-((y / scale) ** 2)), [0, 12 * scale])

        norm = moment(0)
        return moment(2) / norm, moment(4) / norm
