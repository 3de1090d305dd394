"""Module structure of a cold start.

The closed-form scenarios (rect, sweep, fig1a, fig1b), the back-reaction
scenarios (fig3, backreaction) and validate run on numpy alone; importing
scipy would multiply their start-up time several times over.  The
scenarios that need scipy (fig2, wkb, mode-evolve) load it themselves, and
the scenarios whose modules the CLI imports lazily still run from a fresh
interpreter.  These tests check which modules load, not how long they take,
so host load does not move them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_ONLY_RUNS = """
import sys
from qtunnel.cli import main

runs = [[scenario, "--out", scenario + ".csv"]
        for scenario in ("rect", "sweep", "fig1a", "fig1b", "fig3")]
runs.append(["backreaction", "--modes", "1:1:0.15;1:1.5:0.1", "--out", "backreaction.csv"])
runs.append(["validate", "--config", "run.cfg"])
codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def fresh_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def test_numpy_only_scenarios_load_no_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text("scenario = rect\n")
    proc = fresh_python(["-c", NUMPY_ONLY_RUNS], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scenario", ["fig3", "mode-evolve", "wkb"])
def test_scipy_scenarios_run_from_cold_interpreter(tmp_path, scenario):
    out = tmp_path / "out.csv"
    proc = fresh_python(["-m", "qtunnel", scenario, "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(f"# qtunnel v1, scenario={scenario}, params=")
