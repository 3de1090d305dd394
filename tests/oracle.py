"""High-precision oracle for the back-reaction factors, from the paper's
formulas in mpmath alone: it imports nothing from qtunnel.

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
