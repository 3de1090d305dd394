"""Command-line driver: scenarios, config handling, determinism, exit codes."""

import math
import warnings

import numpy as np
import pytest

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


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("E = 2\nbogus = 3\n")


def test_validate_file_function(tmp_path):
    from qtunnel.config import validate_file

    good = tmp_path / "good.cfg"
    good.write_text("scenario = rect\nE = 2\nV0 = 4\n")
    assert validate_file(good) == []
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = rect\nE = 5\nV0 = 4\n")
    problems = validate_file(bad)
    assert len(problems) == 1 and "AboveBarrier" in problems[0]


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


@pytest.mark.parametrize("scenario, lines", [
    ("rect", "a = 400"),
    ("fig3", "a = 400"),
    ("sweep", "sweep_key = a\nsweep_values = 1,400"),
], ids=["rect", "fig3", "sweep"])
def test_validate_reports_thick_barrier_that_run_rejects(tmp_path, capsys, scenario, lines):
    cfg = tmp_path / "thick.cfg"
    cfg.write_text(f"scenario = {scenario}\n{lines}\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "barrier too thick" in capsys.readouterr().out
    out = tmp_path / "thick.csv"
    # the run still fails as a numerical error, not a config error
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 3
    assert "PrecisionError" in capsys.readouterr().err
    assert not out.exists()


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


def test_missing_out_is_config_error(capsys):
    assert main(["rect"]) == 2
    assert "--out" in capsys.readouterr().err


def test_figure_scenarios_fast_at_default_grid(tmp_path):
    import time

    start = time.perf_counter()
    for scenario in ("fig1a", "fig2", "fig3"):
        assert main([scenario, "--out", str(tmp_path / f"{scenario}.csv")]) == 0
    assert time.perf_counter() - start < 60.0


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
])
def test_bad_smooth_barrier_and_time_inputs_are_config_errors(tmp_path, capsys, flags):
    out = tmp_path / "bad.csv"
    assert main([*flags, "--out", str(out)]) == 2
    assert not out.exists()
    # validate catches the same value in a config file
    cfg = tmp_path / "bad.cfg"
    pairs = zip(flags[1::2], flags[2::2])
    cfg.write_text(f"scenario = {flags[0]}\n" + "".join(
        f"{key[2:].replace('-', '_')} = {value}\n" for key, value in pairs))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "invariant violation" in capsys.readouterr().out


def test_config_polynomial_array_equals_scalar_calls():
    xs = np.linspace(-3.0, 4.0, 2001)
    for poly in ("1,8,-8", "0.3,-1.7,2.9,-0.45,0.125"):
        pot = RunConfig(scenario="fig2", values={"poly": poly}).smooth_potential()
        assert pot(xs).tolist() == [pot(float(x)) for x in xs]
        assert pot.derivative(xs).tolist() == [pot.derivative(float(x)) for x in xs]
