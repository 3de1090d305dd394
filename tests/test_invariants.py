"""Physics invariants over inputs drawn as the CLI takes them.

The values are read back from the CSV that ``main`` writes, so each check
covers the scenario, its flags and the CSV writer together.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtunnel.cli import main


def written_row(argv: list[str]) -> dict:
    """The first data row of the CSV that ``main(argv)`` writes, by column."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
    return dict(zip(lines[1].split(","), map(float, lines[2].split(","))))


@settings(max_examples=80, deadline=None)
@given(E=st.floats(0.01, 10.0), gap=st.floats(0.01, 10.0), M=st.floats(0.1, 10.0),
       hbar=st.floats(0.1, 10.0), beta_a=st.floats(5.0, 300.0))
def test_rect_rate_times_rolling_time(E, gap, M, hbar, beta_a):
    """Thick barriers (beta a >= 5): P t_roll = 2 M k/(hbar beta (k^2 + beta^2)).

    The corrections are e^(-2 beta a)(2 + 4 beta a) at most, under 1e-3 from
    beta a = 5 on; acceptance criterion 5 is the case k = beta = 2, M = hbar = 1.
    """
    V0 = E + gap
    k = math.sqrt(2.0 * M * E) / hbar
    beta = math.sqrt(2.0 * M * (V0 - E)) / hbar
    a = beta_a / beta
    row = written_row(["rect", "--E", repr(E), "--V0", repr(V0), "--a", repr(a),
                       "--M", repr(M), "--hbar", repr(hbar)])
    expected = 2.0 * M * k / (hbar * beta * (k**2 + beta**2))
    assert np.isclose(row["P"] * row["t_roll"], expected, rtol=1e-3, atol=0.0)
