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

from qtunnel import rect
from qtunnel.cli import main
from qtunnel.config import RunConfig


def written_columns(argv: list[str]) -> dict:
    """The columns of the CSV that ``main(argv)`` writes, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
    rows = np.array([line.split(",") for line in lines[2:]], dtype=float)
    return dict(zip(lines[1].split(","), rows.T))


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
    cols = written_columns(["rect", "--E", repr(E), "--V0", repr(V0), "--a", repr(a),
                            "--M", repr(M), "--hbar", repr(hbar)])
    expected = 2.0 * M * k / (hbar * beta * (k**2 + beta**2))
    assert np.isclose(cols["P"][0] * cols["t_roll"][0], expected, rtol=1e-3, atol=0.0)


def test_backreaction_grid_convergence():
    """delta_V converges at 4th order in the grid spacing: Q1' is exact at
    each sample and the Simpson rule of the integral over it is 4th order,
    so each halving of the spacing shrinks the difference from the next
    finer grid ~16x (4.94e-10, 3.10e-11, 1.94e-12 at the reference set).

    delta_V is compared, not V_eff: V_eff's 12 printed digits floor near
    1e-11, delta_V's near 1e-14.
    """
    runs = [written_columns(["backreaction", "--grid-points", str(n)])
            for n in (126, 251, 501, 1001)]
    diffs = []
    for coarse, fine in zip(runs, runs[1:]):
        # grid n's points are every other point of grid 2n - 1
        assert np.allclose(coarse["x"], fine["x"][::2], rtol=0.0, atol=1e-12)
        diffs.append(np.max(np.abs(coarse["delta_V"] - fine["delta_V"][::2])))
    assert 1e-12 < diffs[-1] < diffs[0] < 1e-9
    for wide, narrow in zip(diffs, diffs[1:]):
        assert 13.0 < wide / narrow < 19.0


@settings(max_examples=40, deadline=None)
@given(E=st.floats(0.05, 5.0), gap=st.floats(0.05, 5.0), a=st.floats(0.05, 5.0),
       m=st.floats(0.1, 10.0), omega0=st.floats(0.1, 10.0))
def test_uncoupled_mode_has_no_back_reaction(E, gap, a, m, omega0):
    """With c = 0 the mode's frequency never changes, so its state stays the
    vacuum: Q1 = Q2 = 0 and V_eff = V exactly, in fig3 and backreaction."""
    flags = ["--E", repr(E), "--V0", repr(E + gap), "--a", repr(a),
             "--m", repr(m), "--omega0", repr(omega0), "--c", "0"]
    for scenario in ("fig3", "backreaction"):
        cols = written_columns([scenario, *flags])
        assert np.all(cols["Q1"] == 0.0) and np.all(cols["Q2"] == 0.0)
        assert np.array_equal(cols["V_eff"], cols["V"])


@settings(max_examples=80, deadline=None)
@given(scenario=st.sampled_from(["fig1a", "fig1b"]), E=st.floats(0.01, 10.0),
       a=st.floats(0.05, 5.0), beta_a=st.floats(0.05, 300.0), M=st.floats(0.1, 10.0),
       hbar=st.floats(0.1, 10.0))
def test_total_potential_inside_rect_barrier(scenario, E, a, beta_a, M, hbar):
    """Inside the barrier the written V_tot is the closed form of
    ``rect.total_potential_region2`` (criterion 6) and E - V_tot >= 0.

    Not > 0: deep in a thick barrier the kinetic density falls below the
    rounding of E, and E - V_tot is exactly 0 (in doubles below ~1e-16 E;
    in the 12 written digits already below ~5e-12 E).
    """
    V0 = E + (hbar * beta_a / a) ** 2 / (2.0 * M)
    flags = {"E": E, "V0": V0, "a": a, "M": M, "hbar": hbar}
    cols = written_columns([scenario, *(f"--{key}={val!r}" for key, val in flags.items())])
    cfg = RunConfig(scenario, flags)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["grid_points"])  # the CLI's grid
    assert np.allclose(cols["x"], xs, rtol=1e-11, atol=1e-11 * np.max(np.abs(xs)))
    inside = cols["V"] > 0.0
    assert inside.any()
    sol = rect.solve_rect(cfg.physical_params(), cfg.rect_barrier())
    v_tot = cols["V_tot"][inside]
    closed = rect.total_potential_region2(sol, xs[inside])
    assert np.all(np.abs(v_tot - closed) <= 1e-8 * np.maximum(np.abs(v_tot), 1.0))
    assert np.all(cols["E"][inside] - v_tot >= 0.0)
