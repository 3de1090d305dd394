"""Output checks that do not trust the program.

Every op's outcome is judged against the README contract (exit codes 0/2/3,
no output file on failure) and against what its input class requires.  A
CSV from a successful op must parse, hold only finite numbers, have the
expected row count, and satisfy scenario-specific properties computed here
from closed forms (hbar = M = 1, as the generated inputs use).
"""

from __future__ import annotations

import math
import os

import numpy as np

import workloads

_LOG_TINY = math.log(5e-324)  # below this a probability underflows to 0


def _wave_numbers(E: float, V0: float) -> tuple[float, float]:
    return math.sqrt(2.0 * E), math.sqrt(2.0 * (V0 - E))


def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def rect_logs(E: float, V0: float, a: float) -> tuple[float, float]:
    """(ln P, ln t_roll) of the rectangular barrier, in log space so thick
    barriers stay representable:
        P = 4 k^2 b^2 / ((k^2 + b^2)^2 cosh^2(b a) - (b^2 - k^2)^2)
        t_roll = ((k^2 + b^2)/b sinh(2 b a) + 2 a (b^2 - k^2)) / (4 k b^2)
    """
    k, b = _wave_numbers(E, V0)
    s, d = k * k + b * b, b * b - k * k
    lc = _log_cosh(b * a)
    log_p = math.log(4.0 * k * k * b * b) - (
        2.0 * math.log(s) + 2.0 * lc + math.log1p(-(d / s) ** 2 * math.exp(-2.0 * lc)))
    # sinh(2ba) = 2 sinh(ba) cosh(ba); ln sinh(y) = y + ln(1 - e^-2y) - ln 2
    y = 2.0 * b * a
    log_sinh = y + math.log1p(-math.exp(-2.0 * y)) - math.log(2.0)
    log_t = (math.log(s / b) + log_sinh
             + math.log1p(2.0 * a * d * b / s * math.exp(-log_sinh))
             - math.log(4.0 * k * b * b))
    return log_p, log_t


def _agrees_log(value: float, log_ref: float, rel: float) -> bool:
    if value > 0.0:
        return abs(math.log(value) - log_ref) <= rel
    return value == 0.0 and log_ref < _LOG_TINY


def kinetic_density(E: float, V0: float, a: float, x: np.ndarray) -> np.ndarray:
    """E - V_tot inside the barrier (closed form, manifestly positive)."""
    k, b = _wave_numbers(E, V0)
    D = (k * k + b * b) * np.cosh(2.0 * b * (a - x)) + (b * b - k * k)
    return 0.5 * b * b * 4.0 * k * k * b * b / D**2


def _params(op: dict) -> dict:
    """Effective values: generated parameters over the CLI defaults."""
    p = {"E": 2.0, "V0": 4.0, "a": 1.0, "modes": [(1.0, 1.0, 0.15)],
         "poly": [1.0, 8.0, -8.0], "sweep_key": "a",
         "sweep_values": [1.0, 2.0, 3.0, 4.0, 5.0]}
    if op["scenario"] in ("fig2", "wkb"):
        p["E"] = 1.0
    p["grid_points"] = workloads.DEFAULT_GRID.get(op["scenario"], 2000)
    p.update(op["params"])
    return p


def _close(got: np.ndarray, ref, rel: float) -> bool:
    ref = np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= rel * np.maximum(np.abs(ref), 1.0)))


def check_csv(op: dict, text: str) -> str | None:
    """None when the CSV is a correct answer for the op, else the reason."""
    scen = op["scenario"]
    p = _params(op)
    lines = text.split("\n")
    if not lines[0].startswith(f"# qtunnel v1, scenario={scen}, params="):
        return "bad comment header"
    if lines[-1] != "" or len(lines) < 4:
        return "truncated csv"
    columns = workloads.COLUMNS[scen] or [p["sweep_key"], "P", "t_roll"]
    if lines[1].split(",") != columns:
        return f"columns {lines[1]!r}, expected {columns}"
    try:
        data = np.loadtxt(lines[2:-1], delimiter=",", ndmin=2)
    except ValueError as exc:
        return f"unparsable csv: {exc}"
    if scen == "rect":
        rows = 1
    elif scen == "sweep":
        rows = len(p["sweep_values"])
    else:
        rows = int(p["grid_points"])
    if data.shape != (rows, len(columns)):
        return f"shape {data.shape}, expected {(rows, len(columns))}"
    if not np.all(np.isfinite(data)):
        return "non-finite values"
    col = dict(zip(columns, data.T))
    return _CHECKS[scen](p, col)


def _check_rect(p, col):
    return _check_rect_rows([(p["E"], p["V0"], p["a"])], col["P"], col["t_roll"])


def _check_rect_rows(cases, ps, ts):
    for (E, V0, a), got_p, got_t in zip(cases, ps, ts):
        log_p, log_t = rect_logs(E, V0, a)
        if not _agrees_log(got_p, log_p, 1e-10):
            return f"P = {got_p!r} disagrees with the closed form {math.exp(log_p)!r}"
        if not _agrees_log(got_t, log_t, 1e-10):
            return f"t_roll = {got_t!r} disagrees with the closed form {math.exp(log_t)!r}"
    return None


def _check_sweep(p, col):
    key = p["sweep_key"]
    if not _close(col[key], p["sweep_values"], 1e-11):
        return "sweep column does not match the requested values"
    cases = [{"E": p["E"], "V0": p["V0"], "a": p["a"], key: v} for v in p["sweep_values"]]
    return _check_rect_rows([(c["E"], c["V0"], c["a"]) for c in cases], col["P"], col["t_roll"])


def _check_fig1(p, col):
    E, V0, a = p["E"], p["V0"], p["a"]
    x = col["x"]
    inside = (x >= 0.0) & (x <= a)
    if not _close(col["V"], np.where(inside, V0, 0.0), 1e-11) or not _close(col["E"], E, 1e-11):
        return "V or E column wrong"
    if not _close(col["V_tot"][inside], E - kinetic_density(E, V0, a, x[inside]), 1e-8):
        return "V_tot inside the barrier disagrees with the closed form"
    return None


def _check_fig3(p, col):
    if not np.all(col["Q1"] < 0.0):
        return "Q1 >= 0 somewhere"
    if not np.all(col["V_eff"] >= col["V"]):
        return "V_eff < V somewhere"
    if not _close(col["V"], p["V0"], 1e-11):
        return "V column is not V0"
    return None


def _check_backreaction(p, col):
    bad = _check_fig3(p, col)
    if bad:
        return bad
    if not _close(col["V_eff"] - col["V"], col["delta_V"], 1e-9):
        return "V_eff - V differs from delta_V"
    p_mod = col["P_modified"]
    if np.ptp(p_mod) != 0.0 or np.ptp(col["delta_V_bar"]) != 0.0:
        return "P_modified or delta_V_bar not constant"
    log_p0, _ = rect_logs(p["E"], p["V0"], p["a"])
    if not 0.0 < p_mod[0] < math.exp(log_p0):
        return f"P_modified = {p_mod[0]!r} not below the bare P {math.exp(log_p0)!r}"
    return None


def _check_mode_evolve(p, col):
    m, om0, _ = p["modes"][0]
    a2 = col["alpha2_xi"]
    if not np.all(np.abs(col["alpha2_ode"] - a2) <= 1e-6 * np.abs(a2)):
        return "alpha^2 of the ODE and 2F1 routes differ by more than 1e-6"
    scale = np.maximum(np.abs(col["beta_xi"]), m * om0)
    if not np.all(np.abs(col["beta_ode"] - col["beta_xi"]) <= 1e-6 * scale):
        return "beta of the ODE and 2F1 routes differ by more than 1e-6"
    return None


def _check_smooth(p, col):
    c0, c1, c2 = p["poly"]
    E = p["E"]
    x = col["x"]
    if not _close(col["V"], c0 + c1 * x + c2 * x * x, 1e-10) or not _close(col["E"], E, 1e-11):
        return "V or E column wrong"
    disc = math.sqrt(c1 * c1 - 4.0 * c2 * (c0 - E))
    x0, xa = sorted(((-c1 + disc) / (2.0 * c2), (-c1 - disc) / (2.0 * c2)))
    on = (x >= x0) & (x <= xa)
    if not np.any(on) or not np.all(E - col["V_tot"][on] > 0.0):
        return "E - V_tot <= 0 on the barrier"
    if "rho_general" in col:
        beta = -(c1 + 2.0 * c2 * xa)
        pref = 3.0 ** (5.0 / 6.0) * math.gamma(2.0 / 3.0) / (2.0 * math.gamma(1.0 / 3.0))
        if not _close(col["rho_general"], pref * beta ** (1.0 / 3.0) / xa, 1e-9):
            return "rho_general disagrees with the closed form"
    return None


_CHECKS = {
    "rect": _check_rect,
    "sweep": _check_sweep,
    "fig1a": _check_fig1,
    "fig1b": _check_fig1,
    "fig3": _check_fig3,
    "backreaction": _check_backreaction,
    "mode-evolve": _check_mode_evolve,
    "fig2": _check_smooth,
    "wkb": _check_smooth,
}


def check_op(op: dict, code, exc: str | None, stdout: str, path: str) -> str | None:
    """None when the op's outcome is what its input class requires."""
    exists = os.path.exists(path)
    if exc is not None:
        return f"uncaught {exc}"
    if code not in (0, 2, 3):
        return f"exit code {code}"
    if code != 0 and exists:
        return f"partial output file left on exit {code}"
    if op["probe"] in ("nonfinite", "bad_out"):
        return None if code == 2 else f"exit {code}; the contract requires 2"
    if op["probe"] == "thick" and code == 3:
        return None
    if code != 0:
        return f"exit {code}; expected 0"
    if op["scenario"] == "validate":
        return None if "config clean" in stdout else "validate did not report a clean config"
    if not exists:
        return "no output file on exit 0"
    with open(path, encoding="utf-8") as fh:
        return check_csv(op, fh.read())


def corruptions(op: dict, text: str):
    """Deliberately broken variants of a correct CSV, each of which the
    checks must reject."""
    lines = text.split("\n")
    head, rows = lines[:2], lines[2:-1]
    mid = len(rows) // 2
    yield "dropped row", "\n".join(head + rows[:-1]) + "\n"
    cells = rows[mid].split(",")
    yield "nan value", "\n".join(head + rows[:mid] + [",".join(cells[:-1] + ["nan"])]
                                  + rows[mid + 1:]) + "\n"
    # a physics error in the column the scenario's check rests on
    target, change = {
        "rect": ("P", _scale), "sweep": ("P", _scale), "fig1a": ("V_tot", _scale),
        "fig1b": ("V_tot", _scale), "fig3": ("Q1", _negate),
        "backreaction": ("delta_V", _scale), "mode-evolve": ("alpha2_ode", _scale),
        "fig2": ("V_tot", _lift), "wkb": ("rho_general", _scale),
    }[op["scenario"]]
    j = head[1].split(",").index(target)
    out = []
    for row in rows:
        cells = row.split(",")
        cells[j] = "%.12g" % change(float(cells[j]))
        out.append(",".join(cells))
    yield f"corrupted {target}", "\n".join(head + out) + "\n"


def _scale(v: float) -> float:
    return v * (1.0 + 1e-5)


def _negate(v: float) -> float:
    return -v


def _lift(v: float) -> float:
    return v + 10.0
