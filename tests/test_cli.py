"""Command-line driver: scenarios, config handling, determinism, exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from qtunnel import cli, errors, modes, specfun
from qtunnel.cli import main
from qtunnel.config import ConfigError, RunConfig, parse_config_text


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# qtunnel v1, scenario=")
    columns = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return columns, rows


def test_rect_scenario_values(tmp_path):
    out = tmp_path / "rect.csv"
    assert main(["rect", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    row = dict(zip(columns, rows[0]))
    assert row["P"] == pytest.approx(0.0706508, abs=1e-7)
    assert row["t_roll"] == pytest.approx(3.4112397, abs=1e-7)
    assert row["k"] == pytest.approx(2.0)
    assert row["beta"] == pytest.approx(2.0)


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["fig3", "--grid-points", "200", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sweep-values", "1,2,3,4,5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ps = rows[:, 1]
    assert np.all(np.diff(ps) < 0.0)


def _p_thin_oracle(E, a):
    # 1/P = 1 + (sinh(beta a) (k^2 + beta^2)/(2 k beta))^2 at V0 = 4, in 50 digits
    with mp.workdps(50):
        k2, b2 = 2 * mp.mpf(E), 2 * (4 - mp.mpf(E))
        s = mp.sinh(mp.sqrt(b2) * mp.mpf(a)) * (k2 + b2) / (2 * mp.sqrt(k2 * b2))
        return float(1 / (1 + s**2))


def test_sweep_thin_low_energy_barriers(tmp_path):
    # P from 0.9992 down: the closed form must not cancel near P = 1
    out = tmp_path / "sweep.csv"
    widths = (1e-5, 1e-4, 1e-3, 1e-2)
    assert main(["sweep", "--E", "1e-6", "--sweep-key", "a", "--sweep-values",
                 ",".join(map(str, widths)), "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    for a, p in zip(widths, rows[:, columns.index("P")]):
        assert p == pytest.approx(_p_thin_oracle(1e-6, a), rel=1e-10)


@pytest.mark.parametrize("E, a", [(1e-6, 1e-4), (1e-12, 1e-10), (1e-9, 1e-8)])
def test_rect_thin_low_energy_barrier(tmp_path, E, a):
    out = tmp_path / "rect.csv"
    assert main(["rect", "--E", str(E), "--a", str(a), "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert rows[0, columns.index("P")] == pytest.approx(_p_thin_oracle(E, a), rel=1e-10)


def test_fig3_effective_potential_dominates(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--grid-points", "300", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    v = rows[:, columns.index("V")]
    v_eff = rows[:, columns.index("V_eff")]
    assert np.all(v_eff >= v)


def test_fig1a_columns(tmp_path):
    out = tmp_path / "fig1a.csv"
    assert main(["fig1a", "--grid-points", "101", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["x", "V", "V_tot", "E"]
    assert np.all(rows[:, 3] == 2.0)


def test_wkb_scenario_emits_rho(tmp_path):
    out = tmp_path / "wkb.csv"
    assert main(["wkb", "--grid-points", "600", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns[-1] == "rho_general"
    assert rows[0, -1] == pytest.approx(1.262682, abs=1e-5)


def test_mode_evolve_routes_agree(tmp_path):
    out = tmp_path / "me.csv"
    assert main(["mode-evolve", "--grid-points", "41", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    a2_ode = rows[:, columns.index("alpha2_ode")]
    a2_xi = rows[:, columns.index("alpha2_xi")]
    assert np.max(np.abs(a2_ode - a2_xi) / a2_xi) < 1e-6


def test_backreaction_scenario(tmp_path):
    out = tmp_path / "br.csv"
    assert main(["backreaction", "--grid-points", "300", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    p_mod = rows[0, columns.index("P_modified")]
    assert 0.0 < p_mod < 1.0 / math.cosh(2.0) ** 2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("E = 2\nV0 = 4\na = 2\n")
    out = tmp_path / "o.csv"
    assert main(["rect", "--config", str(cfg), "--a", "5", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    # flag wins over the file: a = 5 gives P = 1/cosh^2(10)
    assert rows[0, columns.index("P")] == pytest.approx(1.0 / math.cosh(10.0) ** 2, rel=1e-10)


def test_config_out_key_and_out_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    cfg.write_text(f"out = {from_file}\n")
    assert main(["rect", "--config", str(cfg)]) == 0
    assert from_file.read_text().startswith("# qtunnel v1, scenario=rect")
    from_file.unlink()
    assert main(["rect", "--config", str(cfg), "--out", str(from_flag)]) == 0
    assert from_flag.exists() and not from_file.exists()


def test_validate_clean_config(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(
        "scenario = fig3\nE = 2\na = 1\nV0 = 4\nm = 1\nomega0 = 1\nc = 0.15\n"
    )
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "clean" in capsys.readouterr().out


def test_validate_above_barrier(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = rect\nE = 5\nV0 = 4\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "AboveBarrier" in capsys.readouterr().out


def test_validate_negative_frequency(tmp_path, capsys):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("scenario = fig3\nomega0 = -1\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "omega0" in capsys.readouterr().out


def test_config_syntax_error_reports_position(tmp_path, capsys):
    cfg = tmp_path / "syntax.cfg"
    cfg.write_text("E = 2\nthis line is wrong\n")
    assert main(["rect", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe E = 2\n"], ids=["missing", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "x.csv"
    assert main(["rect", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("E = 2\nbogus = 3\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("E = banana\n")
    assert err.value.line == 1


def test_scenario_defaults():
    cfg = RunConfig(scenario="fig2", values={})
    assert cfg["E"] == 1.0  # smooth-barrier default
    cfg = RunConfig(scenario="rect", values={})
    assert cfg["E"] == 2.0


def test_numerical_error_exit_code_and_no_partial_output(tmp_path, capsys):
    out = tmp_path / "nope.csv"
    # E = 4 exceeds the quadratic barrier top (V_max = 3): no turning points
    code = main(["fig2", "--E", "4", "--out", str(out)])
    assert code == 3
    assert "TurningPointTopologyError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["rect", "--a", "400"],
    ["rect", "--a", "180"],
    ["sweep", "--sweep-key", "a", "--sweep-values", "1,400"],
    # beta*a inside double range, but t_roll = inf
    ["rect", "--E", "0.1", "--V0", "0.2", "--a", "793.5"],
    # |A|^2 finite, the outside V_tot NaN
    ["fig1a", "--E", "50", "--V0", "51", "--a", "250.3"],
])
def test_thick_barrier_is_numerical_error(tmp_path, capsys, flags):
    out = tmp_path / "thick.csv"
    assert main([*flags, "--out", str(out)]) == 3
    assert "PrecisionError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, lines, error", [
    ("rect", "a = 400", "PrecisionError"),
    ("fig3", "a = 400", "PrecisionError"),
    ("sweep", "sweep_key = a\nsweep_values = 1,400", "PrecisionError"),
    # k^2 beta^2 underflows
    ("rect", "M = 1e-200", "PrecisionError"),
    ("rect", "hbar = 1e100", "PrecisionError"),
    # |C/A|^2 rounds to 1, 8e-10 above the closed form
    ("rect", "E = 1e-30\na = 1e-20", "PrecisionError"),
    # t_roll = inf
    ("rect", "E = 0.1\nV0 = 0.2\na = 793.5", "PrecisionError"),
    ("fig2", "hbar = 1e-200", "PrecisionError"),
    ("fig2", "hbar = 1e200", "ThinBarrierError"),
    # above the barrier top V = 3: no turning points
    ("fig2", "E = 4", "TurningPointTopologyError"),
    ("fig2", "bracket = 2,3", "TurningPointTopologyError"),
    ("wkb", "grid_points = 20", "DomainError"),
    ("fig3", "omega0 = 1e-150", "PrecisionError"),
    ("fig1a", "E = 50\nV0 = 51\na = 250.3", "PrecisionError"),
    # omega_infinity^2 = 1 - 4 * 0.26 < 0
    ("backreaction", "c = -0.26", "TachyonicModeError"),
    # rho = hbar k/(a M) ~ 1.4e450 overflows
    ("fig3", "E = 1e300\nV0 = 2e300\na = 1e-300", "DomainError"),
    # tanh(rho t) saturates
    ("mode-evolve", "t_max = 400", "PrecisionError"),
    ("backreaction", "c = 100", "OutOfRegimeError"),
    # the 2F1 series cancels: its terms reach ~1e16 |F| on a barrier this wide
    ("fig3", "a = 40", "PrecisionError"),
    ("backreaction", "a = 40", "PrecisionError"),
    ("mode-evolve", "a = 40", "PrecisionError"),
    # rho = k/a ~ 1.4e-150 comes from the rect solution: t/rho overflows
    ("mode-evolve", "E = 1e-300\nt_min = -1e300\nt_max = 1e300", "ConfigError"),
    # t/rho stays finite, the vacuum start -12/rho does not
    ("mode-evolve", "rho = 6e-308", "ConfigError"),
    # x^2 overflows on the root scan
    ("fig2", "poly = -0.95,8,-8\nbracket = -1e160,1e160", "PrecisionError"),
    # the scans' node spacing needs a finite span
    ("wkb", "poly = -0.95,8,-8\nbracket = -1e308,1e308", "ConfigError"),
    # 1e308 x^2 overflows inside the default bracket
    ("fig2", "poly = 0,1e308,-1e308", "PrecisionError"),
    # an empty and a reversed x range, refused like the t range
    ("fig1a", "x_min = 0\nx_max = 0", "ConfigError"),
    ("fig1b", "x_min = 1\nx_max = 0", "ConfigError"),
], ids=["rect", "fig3", "sweep", "rect-M", "rect-hbar", "rect-E-a", "rect-t_roll",
        "fig2-hbar-small", "fig2-hbar-large", "fig2-E", "fig2-bracket", "wkb-grid",
        "fig3-omega0", "fig1a-thick", "backreaction-tachyonic", "fig3-infinite-rho",
        "mode-evolve-t_max", "backreaction-c",
        "fig3-wide", "backreaction-wide", "mode-evolve-wide", "mode-evolve-derived-rho",
        "mode-evolve-vacuum-start", "fig2-wide-bracket", "wkb-bracket-span",
        "fig2-poly-overflow", "fig1a-empty-x", "fig1b-reversed-x"])
def test_validate_reports_what_the_run_rejects(tmp_path, capsys, scenario, lines, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = {scenario}\n{lines}\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    report = capsys.readouterr().out.splitlines()
    out = tmp_path / "bad.csv"
    code = main([scenario, "--config", str(cfg), "--out", str(out)])
    assert capsys.readouterr().err.splitlines() == report[:1]
    if error == "ConfigError":
        assert report[0].startswith("config error: ")
        assert code == 2
    else:
        assert report[0].startswith(f"{scenario} failed: {error}: ")
        assert code == (2 if issubclass(getattr(errors, error), errors.DomainError) else 3)
    assert not out.exists()


def test_validate_reports_step_budget_that_run_rejects(tmp_path, capsys):
    # rho = 1e-5 stretches the vacuum start to ~1e6 time units: 2.8e8 Magnus steps
    line = ("mode-evolve failed: StiffnessError: the Magnus route needs 2.78e+08 steps "
            "on [-1200000.0, 999999.9999999999] (at most 67108864)")
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("scenario = mode-evolve\nrho = 1e-5\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == line
    out = tmp_path / "slow.csv"
    assert main(["mode-evolve", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


_OVERFLOWS = [
    # omega_infinity^2 = omega0^2 + 4 c a/m overflows to inf
    *[(flags, 2, f"{flags[0]} failed: DomainError: late-time omega^2 = inf is not a finite double")
      for flags in (["fig3", "--c", "1e308"], ["backreaction", "--c", "1e308"],
                    ["fig3", "--m", "5e-324"], ["mode-evolve", "--c", "1e308"],
                    ["mode-evolve", "--m", "5e-324"])],
    # alpha^2 = m Im(d ln xi/dt) overflows once Im(d ln xi/dt) passes 1
    (["mode-evolve", "--m", "1.7976931348623157e308"], 3,
     "mode-evolve failed: PrecisionError: alpha^2 or beta is not a finite double at t = -4.95"),
]


@pytest.mark.parametrize("flags, code, line", _OVERFLOWS, ids=[" ".join(f) for f, *_ in _OVERFLOWS])
def test_mode_frequency_and_width_overflow_fail_in_one_line(tmp_path, capsys, flags, code, line):
    scenario, *overrides = flags
    cfg = tmp_path / "over.cfg"
    cfg.write_text(f"scenario = {scenario}\n")
    out = tmp_path / "over.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(cfg), *overrides]) == 2
        assert capsys.readouterr().out == f"{line}\n1 invariant violation\n"
        assert main([*flags, "--out", str(out)]) == code
        assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_saturation_names_the_first_saturated_time(tmp_path, capsys):
    # 1 - z underflows to 0 from rho t = 372.84 on: the first such grid time
    # is 186.41875, the grid's last 200
    line = "mode-evolve failed: PrecisionError: trajectory argument saturated at t = 186.41875"
    cfg = tmp_path / "late.cfg"
    cfg.write_text("scenario = mode-evolve\nt_max = 400\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == line
    out = tmp_path / "late.csv"
    assert main(["mode-evolve", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("values, degenerate", [
    ({"grid_points": 20_000}, False),
    # c - a - b = i omega_infinity/rho, 5e-8 i here, is within 1e-6 of 0: the
    # z > 1/2 points take the perturb-and-average (degraded) route
    ({"grid_points": 20_000, "omega0": 1e-7, "c": 1e-15}, True),
], ids=["default", "degenerate"])
def test_mode_evolve_blocks_match_one_call_over_the_grid(monkeypatch, values, degenerate):
    # rho t from -10 to 10: 3 blocks of 8,192 points, the last two on the
    # z > 1/2 branch, give the bits of one 2F1 call over the grid, which a
    # block size of the grid's makes one block
    cfg = RunConfig("mode-evolve", values)
    degraded = []
    kernel = specfun.hyp2f1_ex

    def counted(*args):
        res = kernel(*args)
        degraded.append(res.degraded)
        return res

    monkeypatch.setattr(specfun, "hyp2f1_ex", counted)
    _, blocked = cli._run_mode_evolve(cfg)
    assert degraded == [False, degenerate, degenerate]
    monkeypatch.setattr(modes, "_BLOCK_PAIRS", 20_000)
    _, whole = cli._run_mode_evolve(cfg)
    assert degraded[3:] == [degenerate]
    for col_blocked, col_whole in zip(blocked, whole):
        assert col_blocked.tobytes() == col_whole.tobytes()


@pytest.mark.parametrize("a", [90.0, 125.0, 175.0])
def test_thick_in_range_barrier_runs_without_warnings(tmp_path, a):
    # beta = 2: beta*a from 180 to 350, where cosh(2 beta (a - x))^2 overflows
    # inside the barrier while the true E - V_tot underflows to 0
    out = tmp_path / "fig1a.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig1a", "--a", str(a), "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert np.all(np.isfinite(rows))


def test_backreaction_on_a_vanishing_barrier(tmp_path):
    # a = 1e-300: grid spacing ~5e-304, the thin-barrier limit P = 1
    out = tmp_path / "thin.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["backreaction", "--a", "1e-300", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert np.all(rows[:, columns.index("delta_V_bar")] == 0.0)
    assert np.all(rows[:, columns.index("P_modified")] == 1.0)


@pytest.mark.parametrize("flags", [
    *[[scenario, "--omega0", "1e200"] for scenario in ("fig3", "backreaction", "mode-evolve")],
    *[[scenario, flag, value] for scenario in ("fig2", "wkb")
      for flag, value in (("--hbar", "1e200"), ("--hbar", "1e-200"), ("--M", "1e200"))],
    *[[scenario, "--M", "1e-200"] for scenario in ("rect", "sweep", "backreaction")],
    # Im d ln xi/dt rounds to 0, so Q1 and Q2 are infinite
    ["fig3", "--omega0", "1e-150"],
    # |C/A|^2 rounds to 1, 8e-10 above the closed form
    ["rect", "--E", "1e-30", "--a", "1e-20"],
], ids=" ".join)
def test_extreme_scales_fail_cleanly(tmp_path, capsys, flags):
    # omega0^2, hbar^2, e^(2 theta) or k^2 beta^2 leaves double range
    out = tmp_path / "extreme.csv"
    assert main([*flags, "--out", str(out)]) in (2, 3)
    err = capsys.readouterr().err
    assert "Error" in err
    assert not out.exists()
    if flags == ["fig3", "--omega0", "1e-150"]:
        # the line names the mode and the first grid point that fails
        assert err == ("fig3 failed: PrecisionError: Q1, Q1' or Q2 leaves double range: "
                       "mode 1 at x = 0.0019994997498749374\n")


def test_convergence_error_names_the_grid_point_z(tmp_path, capsys):
    # the 2F1 argument of the first grid point x = 1e-3 a is x/2a, exactly
    out = tmp_path / "light.csv"
    assert main(["fig3", "--m", "1e-8", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fig3 failed: ConvergenceError: 2F1 series terms overflow a double ")
    assert err.endswith(", z = 0.0005\n")
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["fig2", "wkb"])
@pytest.mark.parametrize("hbar", ["1e-3", "3e-3", "1e-2", "3e-2"])
def test_small_hbar_smooth_barrier_exits_0_or_3(tmp_path, scenario, hbar):
    # small hbar widens the Airy windows in units of the Airy length (larger
    # |z| in the kernel) and grows the barrier action past double range
    out = tmp_path / "small.csv"
    code = main([scenario, "--hbar", hbar, "--out", str(out)])
    assert code in (0, 3)
    assert out.exists() == (code == 0)


def test_validate_reports_omega0_past_double_range(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("scenario = fig3\nomega0 = 1e200\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.startswith("fig3 failed: DomainError: ")


def test_missing_out_is_config_error(capsys):
    assert main(["rect"]) == 2
    assert "--out" in capsys.readouterr().err


def test_figure_scenarios_fast_at_default_grid(tmp_path):
    import time

    start = time.perf_counter()
    for scenario in ("fig1a", "fig2", "fig3"):
        assert main([scenario, "--out", str(tmp_path / f"{scenario}.csv")]) == 0
    assert time.perf_counter() - start < 60.0


def test_large_grid_peak_memory(tmp_path):
    """fig3 and backreaction on 131,072 points hold neither their whole CSV
    text nor a mode-function or 2F1 working set over every point: the rows
    stream to the file block by block, and the mode function and Q factors
    are evaluated in blocks of 8,192 points.  The traced peak is ~9.0 MiB,
    set by the profile's own columns and the rows of Q1, Q2 and Q1' (10.0
    MiB with the V column as a full array, 22 MiB with the mode function over
    every point, 38 MiB with the CSV text too); allocations, unlike times, do
    not depend on the host's load."""
    for scenario in ("fig3", "backreaction"):
        assert main([scenario, "--out", str(tmp_path / "warm.csv")]) == 0  # imports, tables
        tracemalloc.start()
        try:
            assert main([scenario, "--grid-points", "131072",
                         "--out", str(tmp_path / "big.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11.5 * 2**20, scenario


def test_large_mode_evolve_peak_memory(tmp_path):
    """mode-evolve on 131,072 points: the exact mode function is evaluated in
    blocks of ``modes.grid_blocks``, one 2F1 kernel call each, which the
    kernel sums in one pass, with the w-series work rows sized to the
    z > 1/2 points of the block.  The traced peak is ~24.8 MiB, the two 2F1
    columns staying alive through the Magnus run (37.9 MiB with the mode
    function over every point in one call)."""
    assert main(["mode-evolve", "--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        assert main(["mode-evolve", "--grid-points", "131072",
                     "--out", str(tmp_path / "big.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_mode_evolve_refused_by_the_2f1_runs_no_ode(tmp_path, capsys, monkeypatch):
    # the 2F1 blocks run before the Magnus ODE, so the refusal costs no ODE run
    def no_ode(*args, **kwargs):
        raise AssertionError("evolve_gaussian called")

    monkeypatch.setattr(modes, "evolve_gaussian", no_ode)
    out = tmp_path / "me.csv"
    assert main(["mode-evolve", "--a", "40", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("mode-evolve failed: PrecisionError: 2F1 series cancels: ")
    cfg = tmp_path / "me.cfg"
    cfg.write_text("scenario = mode-evolve\na = 40\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.splitlines() == [err[0], "1 invariant violation"]
    assert list(tmp_path.iterdir()) == [cfg]


def test_multi_mode_config(tmp_path):
    out = tmp_path / "mm.csv"
    assert main([
        "backreaction", "--modes", "1:1:0.15;1:1.5:0.1",
        "--grid-points", "200", "--out", str(out),
    ]) == 0
    columns, rows = read_csv(out)
    assert np.all(rows[:, columns.index("V_eff")] >= rows[:, columns.index("V")])


@pytest.mark.parametrize("flags", [
    ["rect", "--E", "nan"],
    ["rect", "--a", "inf"],
    ["fig1a", "--V0", "nan"],
    ["fig3", "--c", "inf"],
    ["fig1a", "--x-max", "nan"],
])
def test_nonfinite_input_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "nf.csv"
    assert main([*flags, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(["rect", "--out", str(out)]) == 2
    assert "output error" in capsys.readouterr().err
    assert not out.parent.exists()
    # a directory as target: the temporary file is removed again
    assert main(["rect", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exists", [False, True], ids=["missing", "directory"])
def test_out_with_a_trailing_separator_is_output_error(tmp_path, capsys, exists):
    # "new/" names a directory: no file "new" may appear in its place
    target = tmp_path / "new"
    if exists:
        target.mkdir()
    out = str(target) + os.sep
    assert main(["rect", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"output error: cannot write {out}: ")
    assert list(tmp_path.iterdir()) == ([target] if exists else [])
    if exists:
        assert list(target.iterdir()) == []


def test_out_name_of_255_bytes_is_written(tmp_path):
    # the temporary file's name has a fixed length, so a target name at the
    # 255-byte limit of common file systems still has room beside it
    out = tmp_path / ("a" * 251 + ".csv")
    assert main(["rect", "--out", str(out)]) == 0
    assert out.read_text().startswith("# qtunnel v1, scenario=rect")
    assert list(tmp_path.iterdir()) == [out]


def test_config_out_with_a_nul_byte_is_output_error(tmp_path, capsys):
    # open() raises ValueError on a NUL, not OSError: still exit 2, one line
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"scenario = rect\nout = a\0b.csv\n")
    assert main(["rect", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "output error: cannot write a\0b.csv: embedded null byte"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flags", [
    ["wkb", "--bracket", "-0.5,1.5"],
    ["fig2", "--poly", "-1e0,4,-1", "--bracket", "-5e-1,4.5"],
    ["fig1a", "--x-min", "-1e3", "--grid-points", "64"],
    ["fig3", "--c", "-1e-3", "--grid-points", "64"],
], ids=["list", "lists-and-exponent", "exponent", "small-exponent"])
def test_values_with_a_leading_dash_take_either_flag_form(tmp_path, flags):
    # a flag's value is the next word whatever its first character
    scenario, *pairs = flags
    glued = [f"{flag}={value}" for flag, value in zip(pairs[::2], pairs[1::2])]
    outs = [tmp_path / "split.csv", tmp_path / "glued.csv"]
    for out, args in zip(outs, (pairs, glued)):
        assert main([scenario, *args, "--out", str(out)]) == 0, args
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_with_a_utf8_bom_runs_as_without(tmp_path, capsys):
    text = "E = 2.5\nscenario = fig1a\ngrid_points = 64\n"
    outs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(prefix + text.encode())
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "config clean\n"
        outs.append(tmp_path / f"{name}.csv")
        assert main(["fig1a", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "E=2.5 " in outs[0].read_text().splitlines()[0]


def test_out_replaces_existing_file(tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("stale\n")
    assert main(["rect", "--out", str(out)]) == 0
    assert out.read_text().startswith("# qtunnel v1, scenario=rect")
    assert list(tmp_path.iterdir()) == [out]


def test_validate_checks_every_sweep_point(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scenario = sweep\nsweep_key = E\nsweep_values = 1,5\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "E = 5" in capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "a = 400\nsweep_key = a\nsweep_values = 1,2",
    "E = 5\nV0 = 4\nsweep_key = V0\nsweep_values = 6,7",
], ids=["thick", "above-barrier"])
def test_sweep_base_value_of_swept_key_is_unused(tmp_path, capsys, lines):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"scenario = sweep\n{lines}\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")]) == 0


@pytest.mark.parametrize("flags", [
    ["wkb", "--poly", "nan,8,-8"],
    ["fig2", "--poly", "1,inf,-8"],
    ["fig2", "--bracket", "nan,1.5"],
    ["wkb", "--bracket", "1.5,-0.5"],
    ["fig2", "--bracket", "0.5,0.5"],
    ["mode-evolve", "--rho", "0"],
    ["mode-evolve", "--rho", "-1"],
    ["mode-evolve", "--t-min", "5", "--t-max", "-5"],
    ["mode-evolve", "--t-min", "0", "--t-max", "0"],
    ["fig3", "--grid-points", "15"],
    ["backreaction", "--modes", "1:1"],
    ["backreaction", "--modes", "1:x:0.1"],
    ["fig2", "--poly", "1,x"],
    ["wkb", "--bracket", "0.5"],
    ["sweep", "--sweep-key", "M"],
    ["sweep", "--sweep-values", "1,,2"],
    # above the 2^22-point ceiling: refused before any grid is allocated
    ["fig1a", "--grid-points", "1000000000000000000"],
    ["fig3", "--grid-points", "100000000000000000000"],
    ["mode-evolve", "--grid-points", "4194305"],
    # t_max/rho = 1e311 is past the largest double
    ["mode-evolve", "--rho", "1e-310"],
    # mode-evolve evolves one mode; a second one is not ignored
    ["mode-evolve", "--modes", "1:1:0.15;1:1:-5"],
])
def test_bad_smooth_barrier_and_time_inputs_are_config_errors(tmp_path, capsys, flags):
    out = tmp_path / "bad.csv"
    assert main([*flags, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    # validate catches the same value in a config file
    cfg = tmp_path / "bad.cfg"
    pairs = zip(flags[1::2], flags[2::2])
    cfg.write_text(f"scenario = {flags[0]}\n" + "".join(
        f"{key[2:].replace('-', '_')} = {value}\n" for key, value in pairs))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.splitlines() == [err[0], "1 invariant violation"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


# argv (the --out flag goes after the first word), the run's error and the
# error of validate on a config of the same scenario word and flags
_MALFORMED = [
    (["rect", "--bogus-flag", "1"], "unknown flag '--bogus-flag'", "unknown flag '--bogus-flag'"),
    (["rect", "--E", "abc"], "flag --E: bad value 'abc' for E", "flag --E: bad value 'abc' for E"),
    (["rect", "--grid-points", "2.5"], "flag --grid-points: bad value '2.5' for grid_points",
     "flag --grid-points: bad value '2.5' for grid_points"),
    (["rect", "--E"], "flag --E: no value", "flag --E: no value"),
    (["rect", "fig1a"], "expected one scenario word (", "expected one scenario word ("),
    ([], "expected one scenario word (", "no scenario given"),
    (["bogus"], "unknown scenario 'bogus'; choose from ", "unknown scenario 'bogus'; choose from "),
    # argparse took a prefix of a flag: flag names are exact
    (["rect", "--grid", "64"], "unknown flag '--grid'", "unknown flag '--grid'"),
]


@pytest.mark.parametrize("argv, error, validate_error", _MALFORMED,
                         ids=["unknown-flag", "bad-float", "bad-int", "no-value",
                              "second-word", "no-scenario", "unknown-scenario", "prefix"])
def test_malformed_command_line_is_one_config_error_line(tmp_path, capsys, argv, error,
                                                         validate_error):
    out = tmp_path / "out.csv"
    assert main([*argv[:1], "--out", str(out), *argv[1:]]) == 2  # returned, not raised
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {error}")
    # validate prints its one line on stdout
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {argv[0]}\n" if argv else "")
    assert main(["validate", "--config", str(cfg), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"config error: {validate_error}")
    assert lines[1] == "1 invariant violation"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key, value", [("E", "abc"), ("grid_points", "2.5"), ("x_min", "1e3x")])
def test_bad_value_reads_alike_from_a_flag_and_a_file(tmp_path, capsys, key, value):
    # one conversion: the same key and value text either way
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out.csv"
    assert main(["fig1a", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: flag {flag}: bad value {value!r} for {key}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = fig1a\n{key} = {value}\n")
    assert main(["fig1a", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line 2: bad value {value!r} for {key} (line 2, ")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["rect", "--E", "2", "--help"],
                                  ["--bogus", "-h"]])
def test_help_prints_the_usage_lines(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "Usage:",
        "    qtunnel <scenario> [--config FILE] [--key value ...] [--out PATH]",
        "    qtunnel validate --config FILE [--key value ...]",
        "    qtunnel -h | --help",
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, error", [
    ("scenario = bogus\n", "unknown scenario 'bogus'; choose from "),
    ("E = 2\n", "no scenario given (argument or scenario= key)"),
    (None, "validate requires --config"),
], ids=["unknown-scenario", "no-scenario", "no-config"])
def test_validate_without_a_known_scenario_is_config_error(tmp_path, capsys, text, error):
    argv = ["validate"]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"config error: {error}")
    assert lines[1] == "1 invariant violation"
    assert len(list(tmp_path.iterdir())) == (text is not None)


def test_scenario_word_beats_the_file_key_and_validate_runs_the_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = fig2\npoly = x\n")  # a poly only fig2 parses
    out = tmp_path / "out.csv"
    assert main(["rect", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("# qtunnel v1, scenario=rect, ")
    # an empty word falls back to the key, as validate does
    assert main(["", "--config", str(cfg), "--out", str(out)]) == 2
    line = ("config error: poly must be comma-separated numbers: "
            "could not convert string to float: 'x'")
    assert capsys.readouterr().err == line + "\n"
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == f"{line}\n1 invariant violation\n"


# the one-line UTF-8 header copies string values verbatim, so a line break or
# an undecodable argv byte (a lone surrogate) is a bad value, on a key the
# scenario parses (fig2's poly) and on one it never reads (rect's modes)
@pytest.mark.parametrize("value", ["1,8,-8\n", "1,8,-8\r", "1,8,-8\u2028", "\udcff"],
                         ids=["LF", "CR", "LS", "surrogate"])
@pytest.mark.parametrize("scenario, flag", [("fig2", "--poly"), ("rect", "--modes")])
def test_string_value_the_header_cannot_hold_is_config_error(tmp_path, capsys, scenario, flag,
                                                             value):
    line = f"config error: flag {flag}: bad value {value!r} for {flag[2:]}"
    out = tmp_path / "out.csv"
    assert main([scenario, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", line + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {scenario}\n")
    assert main(["validate", "--config", str(cfg), flag, value]) == 2
    assert capsys.readouterr() == (f"{line}\n1 invariant violation\n", "")
    assert list(tmp_path.iterdir()) == [cfg]


def test_tab_in_a_string_value_stays_on_the_header_line(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["fig2", "--poly", "1,\t8,-8", "--grid-points", "200", "--out", str(out)]) == 0
    header, names, *_ = out.read_text().splitlines()
    assert "poly=1,\t8,-8 " in header and names == "x,V,V_tot,E"


def test_config_polynomial_array_equals_scalar_calls():
    # the smooth-barrier code calls the potential on arrays of any length
    # (grids, quadrature nodes, scan nodes): a point's value must not depend
    # on the array it comes in, and must be the polynomial's
    xs = np.linspace(-3.0, 4.0, 2001)
    for poly in ("1,8,-8", "0.3,-1.7,2.9,-0.45,0.125"):
        coeffs = [float(c) for c in poly.split(",")]
        pot = RunConfig(scenario="fig2", values={"poly": poly}).smooth_potential()
        for f, c in ((pot, coeffs), (pot.derivative, P.polyder(coeffs))):
            got = f(xs)
            assert got.tolist() == [f(xs[i:i + 1])[0] for i in range(xs.size)]
            want = P.polyval(xs, c)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("degree", range(6))
def test_config_polynomial_keeps_the_bits_of_the_sum(degree):
    # the potential and its derivative skip the x**0 and x**1 passes of
    # sum(ci * x**i) but must round the same, down to the sign of zero
    rng = np.random.default_rng(degree)
    xs = np.concatenate(([0.0, -0.0, 1.0, -1.0], rng.uniform(-3.0, 3.0, 60),
                         rng.uniform(-1.0, 1.0, 6) * 10.0 ** rng.integers(-200, 60, 6)))
    for trial in range(20):
        coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 4, degree + 1)
        coeffs[rng.random(degree + 1) < 0.3] = 0.0
        coeffs = [math.copysign(c, -1.0) if c == 0.0 and trial % 2 else float(c) for c in coeffs]
        pot = RunConfig(scenario="fig2", values={"poly": ",".join(map(repr, coeffs))}
                        ).smooth_potential()
        value = sum(ci * xs**i for i, ci in enumerate(coeffs))
        slope = sum(i * ci * xs ** (i - 1) for i, ci in enumerate(coeffs) if i > 0)
        for got, want in ((pot(xs), value), (pot.derivative(xs), slope)):
            want = np.broadcast_to(np.asarray(want, dtype=float), xs.shape)
            assert got.tobytes() == want.tobytes(), coeffs


def test_successive_runs_in_one_process_match_fresh_processes(tmp_path, capsys):
    """Runs in one process, each after the others, print and write what
    fresh interpreters do, a refused flag among them."""
    (tmp_path / "run.cfg").write_text("scenario = rect\na = 2\n")
    runs = [
        ["fig1a", "--grid-points", "40", "--out", "{dir}/fig1a.csv"],
        ["rect", "--bogus-flag", "1", "--out", "{dir}/bogus.csv"],  # unknown flag
        ["validate", "--config", str(tmp_path / "run.cfg")],
        ["rect", "--E", "5", "--out", "{dir}/above.csv"],  # E above V0
        ["sweep", "--out", "{dir}/sweep.csv"],
    ]

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    outcomes = {}
    for side in ("first", "second", "fresh"):
        out_dir = tmp_path / side
        out_dir.mkdir()
        for argv in runs:
            argv = [arg.format(dir=out_dir) for arg in argv]
            if side == "fresh":
                proc = subprocess.run([sys.executable, "-m", "qtunnel", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                code, stdout = proc.returncode, proc.stdout
            else:
                code, stdout = main(argv), capsys.readouterr().out
            outcomes.setdefault(side, []).append((code, stdout))
        outcomes[side].append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert [code for code, _ in outcomes["fresh"][:-1]] == [0, 2, 0, 2, 0]
    assert outcomes["first"] == outcomes["second"] == outcomes["fresh"]
