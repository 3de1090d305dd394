"""Mode-function scenario outputs pinned at the reference set.

The rows below were written by the per-point scalar 2F1 implementation that
preceded the whole-grid kernel.  The kernel sums the same series in another
order, so values may move in the last digits only: 1e-10 relative, or 1e-13
absolute for values below 1e-3 in magnitude.  The mode-evolve rows' Magnus
columns (``alpha2_ode``, ``beta_ode``) are the 4th-order Magnus route's own
output from its vacuum start, pinned at the same tolerance.
"""

import numpy as np
import pytest

from qtunnel.cli import main

FIG3_ROWS = {
    # row: x, V, V_eff, Q1, Q2
    0: [0.001, 4, 4.00028150496, -0.060023338597, 0.000225319534747],
    500: [0.250874937469, 4, 4.00056601005, -0.0664931531716, 0.000328375835922],
    1000: [0.500749874937, 4, 4.00137781765, -0.0745387871917, 0.000504325698259],
    1999: [1, 4, 4.01001139713, -0.0981512765141, 0.00150955946254],
}

TWO_MODE_ROWS = {
    # row: x, V, V_eff, delta_V, Q1, Q2, p0, delta_V_bar, P_modified
    0: [0.001, 4, 4.00040615861, 0.000406158612944, -0.101486839043,
        0.000294128690376, 0.0735313275199, 0.00450941524131, 0.0703329482043],
    1000: [0.500749874937, 4, 4.0023129891, 0.00231298909762, -0.127463668741,
           0.000661173113772, 0.533143700214, 0.00450941524131, 0.0703329482043],
    1999: [1, 4, 4.01834737589, 0.0183473758909, -0.171594196726,
           0.00199440378844, 2, 0.00450941524131, 0.0703329482043],
}

MODE_EVOLVE_ROWS = {
    # row: t, alpha2_ode, beta_ode, alpha2_xi, beta_xi
    0: [-5, 1.00000000012, -2.51281575067e-10, 1.00000000012, -2.47338424978e-10],
    200: [-2.5, 1.00000272396, -5.44784590166e-06, 1.00000272396, -5.4478478287e-06],
    400: [0, 1.04887614728, -0.077706099176, 1.04887614728, -0.0777060991824],
    800: [5, 1.09426105807, -0.0202262919276, 1.09426105806, -0.0202262919341],
}


def run_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    columns = lines[1].split(",")
    return columns, np.array([[float(v) for v in line.split(",")] for line in lines[2:]])


def assert_pinned(got, want):
    want = np.asarray(want, dtype=float)
    small = np.abs(want) < 1e-3
    assert np.all(np.abs(got[small] - want[small]) <= 1e-13), (got, want)
    assert np.all(np.abs(got[~small] - want[~small]) <= 1e-10 * np.abs(want[~small])), (got, want)


def test_fig3_rows_pinned(tmp_path):
    _, rows = run_csv(tmp_path, ["fig3"])
    assert len(rows) == 2000
    for i, want in FIG3_ROWS.items():
        assert_pinned(rows[i], want)


def test_two_mode_backreaction_rows_pinned(tmp_path):
    _, rows = run_csv(tmp_path, ["backreaction", "--modes", "1:1:0.15;1.3:0.8:0.1"])
    assert len(rows) == 2000
    for i, want in TWO_MODE_ROWS.items():
        assert_pinned(rows[i], want)


def test_mode_evolve_rows_pinned(tmp_path):
    columns, rows = run_csv(tmp_path, ["mode-evolve"])
    assert len(rows) == 801
    cols = [columns.index(name)
            for name in ("t", "alpha2_ode", "beta_ode", "alpha2_xi", "beta_xi")]
    for i, want in MODE_EVOLVE_ROWS.items():
        assert_pinned(rows[i, cols], want)


@pytest.mark.parametrize("argv", [["fig3", "--c", "0"], ["mode-evolve", "--c", "0"]])
def test_decoupled_mode_is_exactly_inert(tmp_path, argv):
    columns, rows = run_csv(tmp_path, argv)
    if "Q1" in columns:
        assert np.all(rows[:, columns.index("Q1")] == 0.0)
        assert np.all(rows[:, columns.index("Q2")] == 0.0)
        assert np.all(rows[:, columns.index("V_eff")] == rows[:, columns.index("V")])
    else:
        assert np.all(rows[:, columns.index("beta_xi")] == 0.0)
