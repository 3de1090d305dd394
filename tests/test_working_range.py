"""A pinned map of the CLI's working range: exit code and error type at
each known edge.

Each entry is one config on or next to an edge, with the exit code of the
run and the type of its error (None where it runs).  A run that fails
writes no file, so failing entries go through the run itself; entries that
run go through ``validate``, which computes the same columns and skips the
write.  The text of an error is pinned elsewhere; an entry here changes
only when the behaviour at its edge does.  README lists the same edges
with their causes.
"""

import pytest

from qtunnel.cli import main

EDGES = [
    # the 2F1 series cancels past ~12 digits from a = 21 (omega_-/rho ~ 14)
    (["fig3", "--a", "20"], 0, None),
    (["fig3", "--a", "21"], 3, "PrecisionError"),
    (["fig3", "--a", "40"], 3, "PrecisionError"),
    (["fig3", "--a", "100"], 3, "PrecisionError"),
    (["backreaction", "--a", "20"], 0, None),
    (["backreaction", "--a", "21"], 3, "PrecisionError"),
    (["backreaction", "--a", "40"], 3, "PrecisionError"),
    (["backreaction", "--a", "100"], 3, "PrecisionError"),
    (["mode-evolve", "--a", "20"], 0, None),
    (["mode-evolve", "--a", "21"], 3, "PrecisionError"),
    (["mode-evolve", "--a", "40"], 3, "PrecisionError"),
    (["mode-evolve", "--a", "100"], 3, "PrecisionError"),
    # the same cancellation on a thin barrier with a strong coupling
    (["fig3", "--a", "5", "--c", "5"], 3, "PrecisionError"),
    # at omega_-/rho = 1936 the series terms overflow before they are summed
    (["fig3", "--m", "1e-8"], 3, "ConvergenceError"),
    # dF/dz of the exact mode function overflows from rho t = 355 (rho = 1),
    # and 1 - z underflows to 0 past rho t ~ 372.6
    (["mode-evolve", "--t-max", "354"], 0, None),
    (["mode-evolve", "--t-max", "355"], 3, "PrecisionError"),
    (["mode-evolve", "--t-max", "400"], 3, "PrecisionError"),
    # e^(2 beta a) leaves double range past 2 beta a = 709.78 (beta = 2)
    (["rect", "--a", "177"], 0, None),
    (["rect", "--a", "178"], 3, "PrecisionError"),
    (["fig1a", "--a", "177"], 0, None),
    (["fig1a", "--a", "178"], 3, "PrecisionError"),
    # A + B cancels at x = 0 once |A| ~ beta sinh(beta a)/2k is this large
    (["rect", "--E", "1e-15", "--a", "1"], 3, "PrecisionError"),
    (["fig3", "--E", "1e-14"], 3, "PrecisionError"),
    (["fig3", "--E", "3.999"], 0, None),
    # the perturbative scale 2 M a dV_bar/(beta hbar^2) is 1.83: only the
    # modified probability needs it small
    (["backreaction", "--c", "30"], 3, "OutOfRegimeError"),
    (["fig3", "--c", "30"], 0, None),
    # the smooth barrier's e^(2 theta) leaves double range at small hbar
    (["fig2", "--hbar", "1e-2"], 0, None),
    (["fig2", "--hbar", "3e-3"], 3, "PrecisionError"),
    # below 72 grid points region I holds fewer than 6 of them
    (["fig2", "--grid-points", "72"], 0, None),
    (["fig2", "--grid-points", "71"], 2, "DomainError"),
    # the Airy windows, each reaching at least 0.8/|s| from its turning point,
    # overlap on a thin barrier: at large hbar, or at a higher E
    (["fig2", "--hbar", "1.5"], 0, None),
    (["fig2", "--hbar", "2"], 3, "ThinBarrierError"),
    (["wkb", "--E", "1.9"], 0, None),
    (["wkb", "--E", "1.99"], 3, "ThinBarrierError"),
    # omega_infinity^2 = omega0^2 + 4 c a/m is not a finite double
    (["fig3", "--c", "1e308"], 2, "DomainError"),
    (["backreaction", "--c", "1e308"], 2, "DomainError"),
    (["fig3", "--m", "5e-324"], 2, "DomainError"),
    (["mode-evolve", "--c", "1e308"], 2, "DomainError"),
    (["mode-evolve", "--m", "5e-324"], 2, "DomainError"),
    # alpha^2 = m Im(d ln xi/dt) overflows
    (["mode-evolve", "--m", "1.7976931348623157e308"], 3, "PrecisionError"),
    # composite Simpson of the grid's Delta V misses the converged
    # Gauss-Legendre integral by more than 1e-3 of the barrier integral of
    # |Delta V|; each comment gives that measured error, which is also the
    # error against a 64,001-point Simpson reference to the digits shown
    (["fig3", "--a", "3", "--omega0", "0.02", "--c", "0.5", "--m", "0.1", "--grid-points", "40"],
     3, "ResolutionError"),  # 9.5e-3
    (["fig3", "--a", "3", "--omega0", "0.02", "--c", "0.5", "--m", "0.1", "--grid-points", "64"],
     3, "ResolutionError"),  # 3.0e-3
    (["fig3", "--a", "3", "--omega0", "0.02", "--c", "0.5", "--m", "0.1",
      "--grid-points", "2000"], 0, None),  # 2.1e-10
    (["fig3", "--grid-points", "16"], 0, None),  # 9.7e-5
    (["fig3", "--a", "10", "--omega0", "0.05", "--grid-points", "16"],
     3, "ResolutionError"),  # 5.8e-2
    (["backreaction", "--a", "10", "--omega0", "0.05", "--grid-points", "16"],
     3, "ResolutionError"),  # 5.8e-2
    (["fig3", "--a", "15", "--omega0", "0.2", "--c", "0.05", "--grid-points", "16"],
     3, "ResolutionError"),  # 1.5e-2
    (["backreaction", "--a", "15", "--omega0", "0.2", "--c", "0.05", "--grid-points", "16"],
     3, "ResolutionError"),  # 1.5e-2
    # Delta V_bar's Gauss-Legendre panels stop at 128, whatever the grid: 64
    # against 128 differ by 4.1e-11 of the integral of |A| + |(a - x) f|
    (["fig3", "--a", "3", "--omega0", "0.02", "--c", "0.6", "--m", "0.1"], 3, "ResolutionError"),
]


@pytest.mark.parametrize("flags, code, error", EDGES, ids=[" ".join(f) for f, *_ in EDGES])
def test_edge_of_the_working_range(tmp_path, capsys, flags, code, error):
    scenario, *overrides = flags
    if error is None:
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"scenario = {scenario}\n")
        assert main(["validate", "--config", str(cfg), *overrides]) == 0
        assert capsys.readouterr().out == "config clean\n"
    else:
        out = tmp_path / "edge.csv"
        assert main([*flags, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(f"{scenario} failed: {error}: ")
        assert not out.exists()
