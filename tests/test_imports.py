"""Module structure of a cold start.

Every scenario, and validate, runs on numpy alone: the 2F1 kernel's
log-Gamma prefactors and the WKB windows' Airy functions are in-house, and
every quadrature is a fixed rule on numpy arrays.  scipy stays a test-only
dependency (the oracle tests).  No run loads numpy.polynomial, and fig2
and wkb call no LAPACK routine.  The CLI reads its flags without argparse
(and so without gettext).  The scenarios whose modules the CLI
imports lazily still run from a fresh interpreter.  These tests check which
modules load and which routines run, not how long they take, so host load
does not move them.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtunnel.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# every scenario and validate, with any import of scipy failing.  After each
# run none of numpy.ma (np.median's first call), dataclasses and
# numpy.polynomial is loaded.  Every quadrature is core's 24-node table, the
# Airy kernel's past z = 2 (which fig2 reaches at hbar = 0.01) included
RUNS_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from qtunnel.cli import main
from qtunnel.config import SCENARIOS

runs = [(s, lambda s=s: main([s, "--out", s + ".csv"])) for s in SCENARIOS]
runs += [("validate", lambda: main(["validate", "--config", "run.cfg"])),
         ("fig2 at hbar 0.01", lambda: main(["fig2", "--hbar", "0.01", "--out", "hbar.csv"]))]
for name, run in runs:
    assert run() == 0, name
    unused = ["numpy.ma", "dataclasses", "numpy.polynomial"]
    loaded = [module for module in unused if module in sys.modules]
    assert not loaded, (name, loaded)
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
from qtunnel.rect import classical_trajectory, rolling_time, solve_rect

assert main(["fig2", "--out", "fig2.csv"]) == 0
assert main(["wkb", "--out", "wkb.csv"]) == 0
assert "qtunnel.specfun" not in sys.modules  # no 2F1 kernel
sol = solve_rect(PhysicalParams(energy_E=2.0), RectBarrier(4.0, 20.0))
rolling_time(sol)
classical_trajectory(sol).position([-1.0, 0.0, 1.0])
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

# config.parse_flags reads the command line: argparse, and the gettext it
# imports, stay unloaded
NO_ARGPARSE_RUN = """
import sys
from qtunnel.cli import main

assert main(sys.argv[1:]) == 0
loaded = [name for name in ("argparse", "gettext") if name in sys.modules]
assert not loaded, loaded
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


@pytest.mark.parametrize("argv", [["fig1a", "--out", "fig1a.csv"],
                                  ["validate", "--config", "run.cfg"]], ids=["fig1a", "validate"])
def test_cold_run_loads_no_argparse(tmp_path, argv):
    (tmp_path / "run.cfg").write_text("scenario = fig3\n")
    proc = fresh_python(["-c", NO_ARGPARSE_RUN, *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scenario", ["fig3", "mode-evolve", "wkb"])
def test_scipy_scenarios_run_from_cold_interpreter(tmp_path, scenario):
    # scenarios whose modules the CLI imports lazily (and that once loaded scipy)
    out = tmp_path / "out.csv"
    proc = fresh_python(["-m", "qtunnel", scenario, "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(f"# qtunnel v1, scenario={scenario}, params=")


def _seeded_quadratic_polys(count: int, seed: int) -> list[list[str]]:
    """CLI flags of quadratic barriers top - kappa (x - xc)^2 at energy E,
    drawn as the benchmark's smooth-barrier ops draw them."""
    rng = random.Random(seed)
    flags = []
    while len(flags) < count:
        kappa, depth = rng.uniform(7.0, 9.0), rng.uniform(1.8, 2.4)
        xc, E = rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.1)
        half = math.sqrt(depth / kappa)
        if 1.6 / (4.0 * kappa * half) ** (1.0 / 3.0) >= 1.5 * half:
            continue
        poly = (E + depth - kappa * xc * xc, 2.0 * kappa * xc, -kappa)
        flags.append([f"--E={E!r}", f"--poly={','.join(map(repr, poly))}",
                      f"--bracket={xc - half - 0.5!r},{xc + half + 0.5!r}"])
    return flags


@pytest.mark.parametrize("scenario", ["fig2", "wkb"])
def test_smooth_barrier_calls_no_lapack(tmp_path, monkeypatch, scenario):
    # paging in LAPACK cost each smooth-barrier process ~2 MB of resident
    # memory: the Airy window match is solved by QR and the 24-node
    # Gauss-Legendre rule is a table
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK routine called")

    for name in ("lstsq", "eigvalsh", "eigh", "eigvals", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, lapack)
    for flags in [[], *_seeded_quadratic_polys(8, seed=25)]:
        for grid in ("2000", "8000"):
            assert main([scenario, *flags, "--grid-points", grid,
                         "--out", str(tmp_path / "out.csv")]) == 0, flags
