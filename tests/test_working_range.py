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
    # 1 - z of the exact mode function underflows to 0 past rho t ~ 372.6
    (["mode-evolve", "--t-max", "400"], 2, "DomainError"),
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
