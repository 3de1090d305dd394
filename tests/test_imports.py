"""Module structure of a cold start.

Every scenario, and validate, runs on numpy alone: the 2F1 kernel's
log-Gamma prefactors and the WKB windows' Airy functions are in-house, and
every quadrature is a fixed rule on numpy arrays.  scipy stays a test-only
dependency (the oracle tests).  The scenarios whose modules the CLI imports
lazily still run from a fresh interpreter.  These tests check which modules
load, not how long they take, so host load does not move them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# every scenario and validate, with any import of scipy failing.  After each
# run neither numpy.ma (np.median's first call) nor dataclasses is loaded,
# and numpy.polynomial (Gauss-Legendre and Gauss-Hermite nodes) only after
# fig2, wkb and the traversal-time quadrature, so those run last
RUNS_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from qtunnel.backreaction import gaussian_average_check
from qtunnel.cli import main
from qtunnel.config import SCENARIOS
from qtunnel.core import PhysicalParams, RectBarrier
from qtunnel.rect import solve_rect, traversal_time


def traversal():
    sol = solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 20.0))
    traversal_time(sol, 0.0, 20.0)
    return 0


runs = [(s, lambda s=s: main([s, "--out", s + ".csv"]))
        for s in SCENARIOS if s not in ("fig2", "wkb")]
runs += [("validate", lambda: main(["validate", "--config", "run.cfg"])),
         ("fig2", lambda: main(["fig2", "--out", "fig2.csv"])),
         ("wkb", lambda: main(["wkb", "--out", "wkb.csv"])),
         ("traversal time", traversal)]
for name, run in runs:
    assert run() == 0, name
    unused = ["numpy.ma", "dataclasses"]
    if name not in ("fig2", "wkb", "traversal time"):
        unused.append("numpy.polynomial")
    loaded = [module for module in unused if module in sys.modules]
    assert not loaded, (name, loaded)
gaussian_average_check([(1.0, 2.0), (0.8, -1.3)])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""

MODE_EVOLVE_RUN = """
import sys
from qtunnel.cli import main

assert main(["mode-evolve", "--out", "mode-evolve.csv"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""

SMOOTH_BARRIER_AND_EXACT_TRAJECTORY_RUN = """
import sys
from qtunnel.cli import main
from qtunnel.core import PhysicalParams, RectBarrier
from qtunnel.rect import solve_rect, traversal_time

assert main(["fig2", "--out", "fig2.csv"]) == 0
assert main(["wkb", "--out", "wkb.csv"]) == 0
assert "qtunnel.specfun" not in sys.modules  # no 2F1 kernel
sol = solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 20.0))
traversal_time(sol, 0.0, 20.0)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


# validate stops after the non-finite check, so it formats no CSV text
VALIDATE_RUN = """
import sys
from qtunnel.cli import main

assert main(["validate", "--config", "run.cfg"]) == 0
assert "qtunnel.backreaction" in sys.modules
assert "qtunnel.csvfmt" not in sys.modules
"""


def fresh_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def test_numpy_only_scenarios_load_no_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text("scenario = mode-evolve\n")
    proc = fresh_python(["-c", RUNS_WITHOUT_SCIPY], tmp_path)
    assert proc.returncode == 0, proc.stderr


# one scenario per interpreter, with scipy importable: nothing reaches for it
def test_mode_evolve_loads_no_scipy_integrate(tmp_path):
    proc = fresh_python(["-c", MODE_EVOLVE_RUN], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_smooth_barrier_and_exact_trajectory_load_no_scipy_integrate(tmp_path):
    proc = fresh_python(["-c", SMOOTH_BARRIER_AND_EXACT_TRAJECTORY_RUN], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_validate_loads_no_csv_writer(tmp_path):
    (tmp_path / "run.cfg").write_text("scenario = fig3\n")
    proc = fresh_python(["-c", VALIDATE_RUN], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scenario", ["fig3", "mode-evolve", "wkb"])
def test_scipy_scenarios_run_from_cold_interpreter(tmp_path, scenario):
    # scenarios whose modules the CLI imports lazily (and that once loaded scipy)
    out = tmp_path / "out.csv"
    proc = fresh_python(["-m", "qtunnel", scenario, "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(f"# qtunnel v1, scenario={scenario}, params=")
