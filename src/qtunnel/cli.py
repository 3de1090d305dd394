"""Command-line driver: scenario runs, validation, CSV emission.

Usage:
    qtunnel <scenario> [--config FILE] [--key value ...] --out PATH
    qtunnel validate --config FILE

Scenarios: fig1a, fig1b, fig2, fig3, rect, wkb, mode-evolve, backreaction,
sweep.  Output is a CSV with one comment header line

    # qtunnel v1, scenario=<name>, params=<canonical serialization>

followed by a column-name row and numeric rows at 12 significant digits.
Reruns with identical configs are byte-identical.  Exit codes: 0 success,
2 configuration error or unwritable output path, 3 numerical/domain error
(no partial output file is left behind in either failure mode).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import config as cfgmod
from . import rect as rect_mod
from .config import ConfigError, RunConfig
from .errors import PrecisionError, QTunnelError

# backreaction, modes and wkb load scipy, so each runner that needs one imports
# it itself: rect, sweep, fig1a, fig1b and validate run on numpy alone.
if TYPE_CHECKING:
    from .backreaction import BackreactionProfile

_FORMAT = "%.12g"
# rows formatted per batch: bounds how many Python floats are alive at once
_CHUNK_ROWS = 4096


def _csv_text(cfg: RunConfig, columns: dict) -> str:
    """Header, column names and one row per grid point; scalar columns repeat.

    Raises PrecisionError instead of writing a non-finite value.
    """
    n = max(np.size(v) for v in columns.values())
    cols = [np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in columns.values()]
    bad = [name for name, col in zip(columns, cols) if not np.isfinite(col).all()]
    if bad:
        raise PrecisionError(f"non-finite values in {', '.join(bad)}")
    row_format = ",".join([_FORMAT] * len(cols))
    parts = [f"# qtunnel v1, scenario={cfg.scenario}, params={cfg.canonical()}",
             ",".join(columns)]
    for start in range(0, n, _CHUNK_ROWS):
        chunk = [col[start:start + _CHUNK_ROWS].tolist() for col in cols]
        parts.append("\n".join(row_format % row for row in zip(*chunk)))
    return "\n".join(parts) + "\n"


def _run_fig1(cfg: RunConfig) -> str:
    params = cfg.physical_params()
    barrier = cfg.rect_barrier()
    sol = rect_mod.solve_rect(params, barrier)
    xs = np.linspace(float(cfg["x_min"]), float(cfg["x_max"]), int(cfg["grid_points"]))
    prof = rect_mod.potential_profile(sol, xs)
    return _csv_text(cfg, {"x": prof.xs, "V": prof.v, "V_tot": prof.v_tot,
                           "E": params.energy_E})


def _run_fig2(cfg: RunConfig, emit_rho: bool) -> str:
    from . import wkb as wkb_mod

    params = cfg.physical_params()
    potential = cfg.smooth_potential()
    E = params.energy_E
    tps = wkb_mod.find_turning_points(potential, E, cfg.bracket())
    prof = wkb_mod.wkb_total_potential(
        potential, E, params, turning_points=tps, num_points=int(cfg["grid_points"])
    )
    columns = {"x": prof.xs, "V": potential(prof.xs),
               "V_tot": prof.v_tot, "E": E}
    if emit_rho:
        columns["rho_general"] = wkb_mod.rho_general(potential, E, params, turning_points=tps)
    return _csv_text(cfg, columns)


def _mode_backreaction(cfg: RunConfig) -> tuple[rect_mod.RectSolution, BackreactionProfile]:
    """Rect solution and the back-reaction profile summed over the config's modes."""
    from . import backreaction as br

    sol = rect_mod.solve_rect(cfg.physical_params(), cfg.rect_barrier())
    profs = [
        br.rect_mode_backreaction(sol, mode, num_points=int(cfg["grid_points"]))
        for mode in cfg.env_modes()
    ]
    return sol, profs[0] if len(profs) == 1 else br.multi_mode_superpose(profs)


def _run_fig3(cfg: RunConfig) -> str:
    _, prof = _mode_backreaction(cfg)
    return _csv_text(cfg, {"x": prof.xs, "V": prof.v, "V_eff": prof.v_eff,
                           "Q1": prof.q1, "Q2": prof.q2})


def _run_rect(cfg: RunConfig) -> str:
    params = cfg.physical_params()
    sol = rect_mod.solve_rect(params, cfg.rect_barrier())
    p = rect_mod.transmission_probability(sol).closed_form
    t_roll = rect_mod.rolling_time(sol)
    row = [
        p, t_roll, sol.k, sol.beta,
        sol.A.real, sol.A.imag, sol.B.real, sol.B.imag,
        sol.C.real, sol.C.imag, sol.F.real, sol.F.imag,
        sol.G.real, sol.G.imag,
    ]
    columns = [
        "P", "t_roll", "k", "beta",
        "A_re", "A_im", "B_re", "B_im", "C_re", "C_im",
        "F_re", "F_im", "G_re", "G_im",
    ]
    return _csv_text(cfg, dict(zip(columns, row)))


def _run_mode_evolve(cfg: RunConfig) -> str:
    from . import modes as modes_mod

    params = cfg.physical_params()
    sol = rect_mod.solve_rect(params, cfg.rect_barrier())
    bg = rect_mod.classical_trajectory(sol, mode="tanh")
    if cfg["rho"] is not None:
        bg = rect_mod.TanhBackground(amplitude_a=bg.amplitude_a, rho=float(cfg["rho"]))
    mode = cfg.env_modes()[0]
    # t_min/t_max are in units of 1/rho
    ts = np.linspace(float(cfg["t_min"]), float(cfg["t_max"]), int(cfg["grid_points"])) / bg.rho
    t0 = min(modes_mod.vacuum_start_time(bg), ts[0])
    traj = modes_mod.evolve_gaussian(
        mode, bg, modes_mod.vacuum_state(mode, t0), t0, ts[-1],
        t_eval=ts, vacuum_start=True,
    )
    st = modes_mod.state_from_xi(mode, modes_mod.xi_analytic(mode, bg, ts))
    return _csv_text(cfg, {"t": ts, "alpha2_ode": traj.alpha**2, "beta_ode": traj.beta,
                           "alpha2_xi": st.alpha**2, "beta_xi": st.beta})


def _run_backreaction(cfg: RunConfig) -> str:
    from . import backreaction as br

    sol, prof = _mode_backreaction(cfg)
    return _csv_text(cfg, {
        "x": prof.xs, "V": prof.v, "V_eff": prof.v_eff, "delta_V": prof.delta_v,
        "Q1": prof.q1, "Q2": prof.q2, "p0": prof.p0, "delta_V_bar": prof.delta_v_bar,
        "P_modified": br.modified_probability(sol, prof.delta_v_bar),
    })


def _run_sweep(cfg: RunConfig) -> str:
    key, vals = cfg.sweep()
    ps, t_rolls = [], []
    for val in vals:
        values = dict(cfg.values)
        values[key] = val
        sub = RunConfig(scenario="rect", values=values)
        sol = rect_mod.solve_rect(sub.physical_params(), sub.rect_barrier())
        ps.append(rect_mod.transmission_probability(sol).closed_form)
        t_rolls.append(rect_mod.rolling_time(sol))
    return _csv_text(cfg, {key: vals, "P": ps, "t_roll": t_rolls})


_RUNNERS = {
    "fig1a": _run_fig1,
    "fig1b": _run_fig1,
    "fig2": lambda cfg: _run_fig2(cfg, emit_rho=False),
    "fig3": _run_fig3,
    "rect": _run_rect,
    "wkb": lambda cfg: _run_fig2(cfg, emit_rho=True),
    "mode-evolve": _run_mode_evolve,
    "backreaction": _run_backreaction,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig, out_path: str | Path) -> None:
    """Execute one scenario and write its CSV atomically (all or nothing).

    The text goes to a temporary file in the target directory, which then
    replaces the target.  An OSError propagates and leaves no file behind.
    """
    text = _RUNNERS[cfg.scenario](cfg)
    out_path = Path(out_path)
    tmp = out_path.parent / f".{out_path.name}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtunnel",
        description="Barrier tunneling in the quantum-potential picture, "
        "with environment back reaction.",
    )
    parser.add_argument(
        "scenario",
        choices=list(cfgmod.SCENARIOS) + ["validate"],
        help="scenario to run, or 'validate' to check a config file",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output CSV path (required for scenario runs)")
    for key in cfgmod.KNOWN_KEYS:
        if key in ("scenario", "out"):
            continue
        flag = "--" + key.replace("_", "-")
        if key in cfgmod._INT_KEYS:
            parser.add_argument(flag, type=int, dest=key)
        elif key in cfgmod._FLOAT_KEYS:
            parser.add_argument(flag, type=float, dest=key)
        else:
            parser.add_argument(flag, dest=key)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in cfgmod.KNOWN_KEYS
        if key not in ("scenario", "out") and getattr(args, key, None) is not None
    }
    try:
        file_values = cfgmod.load_config(args.config) if args.config else {}
    except ConfigError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"config error: {exc}{loc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.scenario == "validate":
        if not args.config:
            print("config error: validate requires --config", file=sys.stderr)
            return 2
        try:
            cfg = cfgmod.build_config(None, file_values, overrides)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        problems = cfgmod.diagnostics(cfg)
        for problem in problems:
            print(problem)
        if problems:
            print(f"{len(problems)} invariant violation(s)")
            return 2
        print("config clean")
        return 0

    if not args.out:
        print("config error: --out is required", file=sys.stderr)
        return 2
    try:
        cfg = cfgmod.build_config(args.scenario, file_values, overrides)
        # a barrier past double range passes here and fails the run (exit 3)
        problems = cfgmod.config_problems(cfg)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run(cfg, args.out)
    except QTunnelError as exc:
        print(f"{cfg.scenario} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
