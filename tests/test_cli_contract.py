"""Property test of the CLI contract over drawn inputs.

For every input, ``main`` returns 0, 2 or 3 and never raises, and a non-zero
exit leaves no output file.  The inputs include NaN and infinite values,
non-positive values, sweeps with bad points and unwritable ``--out`` paths.
Barriers thicker than beta*a = 355 are left out: their closed forms
overflow double range until they are evaluated in log space.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qtunnel.cli import main

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])
POSITIVE = st.floats(min_value=0.05, max_value=8.0)
ONE_IN_THREE = st.integers(0, 2).map(lambda i: i == 0)
SCENARIOS = ["rect", "fig1a", "sweep", "fig3", "backreaction", "mode-evolve"]
THICK = 355.0


def too_thick(E: float, V0: float, a: float) -> bool:
    values = (E, V0, a)
    return (all(math.isfinite(v) for v in values) and E < V0
            and math.sqrt(2.0 * (V0 - E)) * a > THICK)


@st.composite
def runs(draw):
    """(scenario, flag values, optional sweep, writable --out); at most one
    flag and one sweep point carry a special value, so clean runs are common."""
    scenario = draw(st.sampled_from(SCENARIOS + ["validate"]))
    values = {key: draw(POSITIVE) for key in ("E", "a", "m", "omega0")}
    # mostly below the barrier top, sometimes above it
    values["V0"] = values["E"] + draw(st.floats(min_value=-1.0, max_value=6.0))
    values["c"] = draw(st.floats(min_value=-0.5, max_value=0.5))
    if draw(ONE_IN_THREE):
        values[draw(st.sampled_from(sorted(values)))] = draw(SPECIAL)
    sweep = None
    if scenario in ("sweep", "validate") and draw(st.booleans()):
        points = draw(st.lists(POSITIVE, min_size=1, max_size=3))
        if draw(ONE_IN_THREE):
            points[-1] = draw(SPECIAL)
        sweep = (draw(st.sampled_from(["a", "V0", "E"])), points)
    sets = [values] + [dict(values, **{sweep[0]: v}) for v in (sweep[1] if sweep else [])]
    assume(not any(too_thick(p["E"], p["V0"], p["a"]) for p in sets))
    return scenario, values, sweep, not draw(ONE_IN_THREE)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_main_exit_codes_and_no_partial_output(run):
    scenario, values, sweep, writable = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = (tmp if writable else tmp / "missing") / "out.csv"
        if scenario == "validate":
            lines = [f"{k} = {v!r}" for k, v in values.items()]
            lines.append(f"scenario = {'sweep' if sweep else 'rect'}")
            if sweep:
                lines += [f"sweep_key = {sweep[0]}",
                          "sweep_values = " + ",".join(repr(v) for v in sweep[1])]
            cfg = tmp / "run.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            argv = ["validate", "--config", str(cfg)]
        else:
            argv = [scenario, "--grid-points", "32", "--out", str(out)]
            # --key=value, so argparse reads "-inf" as a value, not a flag
            argv += [f"--{key}={value!r}" for key, value in values.items()]
            if sweep:
                argv += ["--sweep-key", sweep[0],
                         "--sweep-values=" + ",".join(repr(v) for v in sweep[1])]
        code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert not out.exists()
        if not writable and scenario != "validate":
            assert code != 0
