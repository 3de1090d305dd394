"""The back-reaction factors against the mpmath oracle of ``oracle.py``,
which shares no code with the package."""

import numpy as np
import pytest

import oracle
from qtunnel import backreaction as br
from qtunnel import rect
from qtunnel.core import EnvMode, PhysicalParams, RectBarrier


# measured: Q1 within 8.1e-13 at a = 1 and 5.7e-10 at a = 20, where the 2F1
# series cancels more; Q2 within 1.1e-15 and 9.0e-12
@pytest.mark.parametrize("a, rel", [(1.0, 1e-11), (20.0, 1e-8)])
def test_q_factors_match_the_oracle_on_the_default_grid(a, rel):
    sol = rect.solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(height_V0=4.0, width_a=a))
    prof = br.rect_mode_backreaction(sol, EnvMode(mass_m=1.0, omega0=1.0, coupling_c=0.15))
    idx = np.linspace(0, prof.xs.size - 1, 12).round().astype(int)
    q1, q2 = oracle.q_factors(prof.xs[idx], E=2.0, a=a, m=1.0, omega0=1.0, c=0.15)
    for got, want in ((prof.q1[idx], q1), (prof.q2[idx], q2)):
        assert [float(w) for w in want] == pytest.approx(got.tolist(), rel=rel, abs=0.0)
