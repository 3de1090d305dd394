"""High-precision oracles from the paper's formulas in mpmath alone: it
imports nothing from qtunnel.

``traversal_time`` integrates the rectangular barrier's 1/v, and
``gaussian_moments`` takes the moments of an environment mode's Gaussian
weight, each by ``mpmath.quad``.  ``q_factors`` gives the back-reaction
factors, as follows, ``q1_derivative`` differentiates that Q1 in x, and
``delta_v_bar`` integrates the potential shift they make over the barrier.

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
        q = _factors_at(E, a, m, omega0, c, hbar, M)
        pairs = [q(mpmath.mpf(x)) for x in xs]
        return [q1 for q1, _ in pairs], [q2 for _, q2 in pairs]


def q1_derivative(xs, *, E, a, m, omega0, c, hbar=1.0, M=1.0, dps=50):
    """dQ1/dx at each position of ``xs`` for one mode, as a list of mpf: the
    numerical derivative (``mpmath.diff``) of the Q1 of ``q_factors`` in x, at
    ``dps`` digits."""
    with mpmath.workdps(dps):
        q = _factors_at(E, a, m, omega0, c, hbar, M)
        return [mpmath.diff(lambda x: q(x)[0], mpmath.mpf(x)) for x in xs]


def delta_v_bar(*, E, V0, a, m, omega0, c, hbar=1.0, M=1.0, eps=1e-3, dps=20):
    """The barrier average of one mode's Delta V over [eps a, a], taken over
    the width a, as an mpf: by parts, Delta V = A(x) - int_{eps a}^x f gives

        int_{eps a}^a Delta V dx = int_{eps a}^a [A(x) - (a - x) f(x)] dx,

    A = hbar^2 Q1^2/(16 M) + hbar^2 Q2/(4 M) and f = hbar Q1' p0/(4 M), which
    ``mpmath.quad`` takes at ``dps`` digits.  Q1 and Q2 are those of
    ``q_factors``, Q1' is ``mpmath.diff`` of that Q1, and p0 = sqrt(2 M (E -
    V_tot)) = 2 hbar k beta^2/D in closed form, with ``traversal_time``'s D."""
    with mpmath.workdps(dps):
        q = _factors_at(E, a, m, omega0, c, hbar, M)
        E, V0, a, hbar, M = map(mpmath.mpf, (E, V0, a, hbar, M))
        k, beta = mpmath.sqrt(2 * M * E) / hbar, mpmath.sqrt(2 * M * (V0 - E)) / hbar

        def integrand(x):
            q1, q2 = q(x)
            dq1 = mpmath.diff(lambda u: q(u)[0], x)
            D = (k**2 + beta**2) * mpmath.cosh(2 * beta * (a - x)) + beta**2 - k**2
            f = hbar * dq1 * (2 * hbar * k * beta**2 / D) / (4 * M)
            return hbar**2 * q1**2 / (16 * M) + hbar**2 * q2 / (4 * M) - (a - x) * f

        return mpmath.quad(integrand, [mpmath.mpf(eps) * a, a]) / a


def _factors_at(E, a, m, omega0, c, hbar, M):
    """The function x -> (Q1, Q2) of one mode, its constants taken at the
    working precision."""
    E, a, m, omega0, c, hbar, M = map(mpmath.mpf, (E, a, m, omega0, c, hbar, M))
    rho = hbar * (mpmath.sqrt(2 * M * E) / hbar) / (a * M)
    om_inf = mpmath.sqrt(omega0**2 + 4 * c * a / m)
    om_p, om_m = (om_inf + omega0) / 2, (om_inf - omega0) / 2
    pa, pb, pc = 1 - 1j * om_m / rho, -1j * om_m / rho, 1 + 1j * omega0 / rho

    def factors(x):
        t = mpmath.atanh(x / a - 1) / rho
        th, sech2 = mpmath.tanh(rho * t), mpmath.sech(rho * t) ** 2
        z = (1 + th) / 2
        F = mpmath.hyp2f1(pa, pb, pc, z)
        dF = pa * pb / pc * mpmath.hyp2f1(pa + 1, pb + 1, pc + 1, z)
        dln = 1j * om_p + 1j * om_m * th + dF / F * rho * sech2 / 2
        om2 = omega0**2 + 2 * c * a * (1 + th) / m
        d2ln = -om2 - dln**2
        xdot = a * rho * sech2
        return d2ln.real / (xdot * dln.imag), (d2ln.imag / (2 * xdot * dln.imag)) ** 2

    return factors


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
