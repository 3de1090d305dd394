"""The back-reaction factors against the mpmath oracle of ``oracle.py``,
which shares no code with the package."""

import numpy as np
import pytest

import oracle
from qtunnel import backreaction as br
from qtunnel import rect
from qtunnel.core import EnvMode, PhysicalParams, RectBarrier


# measured: Q1 within 8.1e-13 at a = 1 and 5.7e-10 at a = 20, where the 2F1
# series cancels more; Q2 within 1.1e-15 and 9.0e-12.  Q1' within 7.9e-10 of
# max|Q1'| at a = 1 and 9.1e-11 at a = 20, both at x = eps a, and within
# 2.2e-11 elsewhere; a 5-point stencil of Q1 on the same grid misses by 1.2e-8
# and 4.8e-9
@pytest.mark.parametrize("a, rel", [(1.0, 1e-11), (20.0, 1e-8)])
def test_q_factors_match_the_oracle_on_the_default_grid(a, rel):
    sol = rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(height_V0=4.0, width_a=a))
    mode = EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.15)
    prof = br.rect_mode_backreaction(sol, mode)
    idx = np.linspace(0, prof.xs.size - 1, 12).round().astype(int)
    q1, q2 = oracle.q_factors(prof.xs[idx], E=2.0, a=a, m=1.0, omega0=1.0, c=0.15)
    for got, want in ((prof.q1[idx], q1), (prof.q2[idx], q2)):
        assert [float(w) for w in want] == pytest.approx(got.tolist(), rel=rel, abs=0.0)
    dq1 = br.q_factors([mode], rect.classical_trajectory(sol), prof.xs[idx]).dq1[0]
    want = [float(d) for d in oracle.q1_derivative(prof.xs[idx], E=2.0, a=a, m=1.0,
                                                   omega0=1.0, c=0.15)]
    assert want == pytest.approx(dq1.tolist(), rel=0.0, abs=2e-9 * np.max(np.abs(want)))


# measured: 7.8e-14 apart (composite Simpson on 64,001 points is 1.2e-14 from
# the oracle), in 0.4 s of mpmath at 20 digits.  The hard config
# --a 3 --omega0 0.02 --c 0.5 --m 0.1 is left out: mpmath.quad does not
# converge there in seconds
def test_delta_v_bar_matches_the_oracle_at_the_defaults():
    sol = rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(height_V0=4.0, width_a=1.0))
    prof = br.rect_mode_backreaction(sol, EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.15))
    want = oracle.delta_v_bar(E=2.0, V0=4.0, a=1.0, m=1.0, omega0=1.0, c=0.15)
    assert prof.delta_v_bar == pytest.approx(float(want), rel=1e-12, abs=0.0)
