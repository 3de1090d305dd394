"""Property test of the CLI contract over drawn inputs.

For every input, ``main`` returns 0, 2 or 3 and never raises, a non-zero
exit leaves no output file, and exit 0 leaves a complete CSV of finite
values.  The inputs include NaN and infinite values, non-positive values,
sweeps with bad points, reversed time ranges and brackets, smooth barriers
with bad or huge coefficients and brackets near the largest double, barriers on both sides of the double-range edge
(beta*a ~ 355), hbar, M, m, omega0 or rho anywhere from 1e-200 to 1e200,
x and t ranges whose ends come near the largest double, and unwritable
``--out`` paths.  ``validate`` on a config file with a run's
values passes exactly when that run exits 0.
"""

import math
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtunnel.cli import main

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])
POSITIVE = st.floats(min_value=0.05, max_value=8.0)
# widths whose beta*a falls on either side of the double-range edge
THICK_WIDTH = st.floats(min_value=50.0, max_value=1000.0)
ONE_IN_THREE = st.integers(0, 2).map(lambda i: i == 0)
# 10^u, u uniform in [-200, 200]: scales whose squares or exponentials
# leave double range
EXTREME = st.floats(min_value=-200.0, max_value=200.0).map(lambda u: 10.0**u)
# magnitudes up to the largest double: a range from -x to x may span more
# than a double holds, or overflow once divided by rho
NEAR_MAX = st.floats(min_value=1e306, max_value=sys.float_info.max)
SMOOTH = ["fig2", "wkb"]
SCENARIOS = ["rect", "fig1a", "fig1b", "sweep", "fig3", "backreaction", "mode-evolve"] + SMOOTH


def text(value) -> str:
    """A flag or config value: a float, or a tuple as comma-separated floats."""
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


@st.composite
def runs(draw):
    """(scenario, flag values, optional sweep, writable --out, validated
    scenario, "--key value" flags); at most one of hbar, M, m and omega0
    takes an extreme size, and at most one flag, one entry of ``poly`` or
    ``bracket``, and one sweep point carry a special value, so clean runs
    are common."""
    scenario = draw(st.sampled_from(SCENARIOS + ["validate"]))
    target = draw(st.sampled_from(SCENARIOS)) if scenario == "validate" else scenario
    if target in SMOOTH:
        # around the default barrier 1 + 8x - 8x^2 (top V = 3) and bracket
        values = {
            "E": draw(st.floats(min_value=0.2, max_value=3.5)),
            "poly": (draw(st.floats(0.5, 1.5)), draw(st.floats(6.0, 10.0)),
                     draw(st.floats(-10.0, -6.0))),
            "bracket": (draw(st.floats(-1.0, -0.3)), draw(st.floats(1.3, 2.0))),
        }
        if draw(ONE_IN_THREE):  # V or the bracket's span past double range
            if draw(st.booleans()):
                values["bracket"] = (-draw(NEAR_MAX | EXTREME), draw(NEAR_MAX | EXTREME))
            else:
                values["poly"] = (values["poly"][0], draw(EXTREME), -draw(EXTREME))
    else:
        values = {key: draw(POSITIVE) for key in ("E", "a", "m", "omega0")}
        if draw(ONE_IN_THREE):
            values["a"] = draw(THICK_WIDTH)
        # mostly below the barrier top, sometimes above it
        values["V0"] = values["E"] + draw(st.floats(min_value=-1.0, max_value=6.0))
        values["c"] = draw(st.floats(min_value=-0.5, max_value=0.5))
    values["hbar"], values["M"] = draw(POSITIVE), draw(POSITIVE)
    if draw(ONE_IN_THREE):
        values[draw(st.sampled_from(["hbar", "M", "m", "omega0"]))] = draw(EXTREME)
    if target == "mode-evolve":
        # t_max sometimes at or below t_min
        values["t_min"] = draw(st.floats(-10.0, 0.0))
        values["t_max"] = draw(st.floats(-2.0, 10.0))
        values["rho"] = draw(st.floats(0.5, 4.0) | EXTREME)
    if target in ("fig1a", "fig1b", "mode-evolve") and draw(ONE_IN_THREE):
        lo, hi = ("t_min", "t_max") if target == "mode-evolve" else ("x_min", "x_max")
        values[lo], values[hi] = -draw(NEAR_MAX), draw(NEAR_MAX)
    if draw(ONE_IN_THREE):
        key = draw(st.sampled_from(sorted(values)))
        if isinstance(values[key], tuple):
            parts = list(values[key])
            parts[draw(st.integers(0, len(parts) - 1))] = draw(SPECIAL)
            values[key] = tuple(parts)
        else:
            values[key] = draw(SPECIAL)
    sweep = None
    if target == "sweep" and draw(st.booleans()):
        points = draw(st.lists(POSITIVE | THICK_WIDTH, min_size=1, max_size=3))
        if draw(ONE_IN_THREE):
            points[-1] = draw(SPECIAL)
        sweep = (draw(st.sampled_from(["a", "V0", "E"])), points)
    return scenario, values, sweep, not draw(ONE_IN_THREE), target, draw(st.booleans())


def write_config(path: Path, scenario: str, values: dict, sweep, points=None) -> Path:
    """The run's values as a config file for ``validate``."""
    lines = [f"scenario = {scenario}"] + [f"{k} = {text(v)}" for k, v in values.items()]
    if points:
        lines.append(f"grid_points = {points}")
    if sweep:
        lines += [f"sweep_key = {sweep[0]}",
                  "sweep_values = " + ",".join(repr(v) for v in sweep[1])]
    path.write_text("\n".join(lines) + "\n")
    return path


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_main_exit_codes_and_no_partial_output(run):
    scenario, values, sweep, writable, target, split = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = (tmp if writable else tmp / "missing") / "out.csv"
        if scenario == "validate":
            argv = ["validate", "--config", str(write_config(tmp / "run.cfg", target, values, sweep))]
        else:
            # the smooth-barrier windows need more than 32 points
            points = "200" if scenario in SMOOTH else "32"
            argv = [scenario, "--grid-points", points, "--out", str(out)]
            # "--key value" or "--key=value": "-inf" or "-1e+200" is a value either way
            pairs = [(f"--{key.replace('_', '-')}", text(value)) for key, value in values.items()]
            if sweep:
                pairs += [("--sweep-key", sweep[0]),
                          ("--sweep-values", ",".join(repr(v) for v in sweep[1]))]
            argv += [arg for flag, value in pairs
                     for arg in ((flag, value) if split else (f"{flag}={value}",))]
        code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert not out.exists()
        if not writable and scenario != "validate":
            assert code != 0
        if code == 0 and scenario != "validate":
            rows = {"rect": 1, "sweep": len(sweep[1]) if sweep else 5}.get(scenario, int(points))
            assert_complete_and_finite(out.read_text(), scenario, rows)
        if writable and scenario != "validate":
            # validate is a dry run: it passes exactly the configs whose run passes
            cfg = write_config(tmp / "run.cfg", scenario, values, sweep, points)
            assert (main(["validate", "--config", str(cfg)]) == 0) == (code == 0)


def assert_complete_and_finite(csv: str, scenario: str, rows: int) -> None:
    """Header line, column-name row and ``rows`` full rows of finite numbers."""
    lines = csv.splitlines()
    assert lines[0].startswith(f"# qtunnel v1, scenario={scenario}, params=")
    columns = lines[1].split(",")
    assert all(name and not name[0].isdigit() for name in columns)
    assert len(lines) == 2 + rows
    for line in lines[2:]:
        values = [float(v) for v in line.split(",")]
        assert len(values) == len(columns)
        assert all(math.isfinite(v) for v in values), line
