"""Command-line driver: scenario runs, validation, CSV emission.

Usage:
    qtunnel <scenario> [--config FILE] [--key value ...] [--out PATH]
    qtunnel validate --config FILE [--key value ...]
    qtunnel -h | --help

Scenarios: fig1a, fig1b, fig2, fig3, rect, wkb, mode-evolve, backreaction,
sweep.  Output is a CSV with one comment header line

    # qtunnel v1, scenario=<name>, params=<canonical serialization>

followed by a column-name row and numeric rows at 12 significant digits,
each value exactly ``"%.12g" % v``.  Each runner returns the header lines
and its checked columns; ``run`` streams them to the file, the header and
then each block of rows that ``csvfmt`` formats from whole arrays.  Reruns
with identical configs are byte-identical.  The output path is ``--out``,
else the config file's ``out`` key.  ``config.parse_flags`` reads the flags.

``validate`` is a dry run: it runs the config's scenario up to its checked
columns (formatting finite values cannot fail), then prints ``config
clean``, or the line the run would print on failure followed by ``1
invariant violation`` (exit 2).

Exit codes follow the type of the first failure, which prints one line: 0
success; 2 for a ``ConfigError`` (a malformed flag too), a ``DomainError``
or an unwritable output path; 3 for any other ``QTunnelError`` (a numerical
failure).  No failure raises out of ``main`` or leaves a partial output file.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np

from . import config as cfgmod
from . import rect as rect_mod
from .config import ConfigError, RunConfig
from .errors import DomainError, PrecisionError, QTunnelError

# what a runner returns: the CSV's header and column-name lines, then its columns
_Table = tuple[str, list[np.ndarray]]


def _csv_table(cfg: RunConfig, columns: dict) -> _Table:
    """The CSV's header and column-name lines, and its columns as equal-length
    float arrays (scalar columns repeat over the grid).

    Raises PrecisionError instead of returning a non-finite value.
    """
    n = max(np.size(v) for v in columns.values())
    cols = [np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in columns.values()]
    bad = [name for name, col in zip(columns, cols) if not np.isfinite(col).all()]
    if bad:
        raise PrecisionError(f"non-finite values in {', '.join(bad)}")
    header = f"# qtunnel v1, scenario={cfg.scenario}, params={cfg.canonical()}"
    return f"{header}\n{','.join(columns)}\n", cols


def _run_fig1(cfg: RunConfig) -> _Table:
    params = cfg.physical_params()
    barrier = cfg.rect_barrier()
    sol = rect_mod.solve_rect(params, barrier)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    prof = rect_mod.potential_profile(sol, xs)
    return _csv_table(cfg, {"x": prof.xs, "V": prof.v, "V_tot": prof.v_tot,
                            "E": params.energy_E})


def _run_fig2(cfg: RunConfig) -> _Table:
    from . import wkb as wkb_mod

    params = cfg.physical_params()
    potential = cfg.smooth_potential()
    E = params.energy_E
    tps = wkb_mod.find_turning_points(potential, E, cfg.bracket())
    prof = wkb_mod.wkb_total_potential(
        potential, E, params, turning_points=tps, num_points=cfg["grid_points"]
    )
    columns = {"x": prof.xs, "V": prof.v, "V_tot": prof.v_tot, "E": E}
    if cfg.scenario == "wkb":
        columns["rho_general"] = wkb_mod.rho_general(params, tps)
    return _csv_table(cfg, columns)


def _mode_backreaction(cfg: RunConfig):
    """Rect solution and the back-reaction profile summed over the config's modes."""
    from . import backreaction as br

    sol = rect_mod.solve_rect(cfg.physical_params(), cfg.rect_barrier())
    return sol, br.rect_mode_backreaction(sol, *cfg.env_modes(),
                                          num_points=cfg["grid_points"])


def _run_fig3(cfg: RunConfig) -> _Table:
    _, prof = _mode_backreaction(cfg)
    return _csv_table(cfg, {"x": prof.xs, "V": prof.v, "V_eff": prof.v_eff,
                            "Q1": prof.q1, "Q2": prof.q2})


def _run_rect(cfg: RunConfig) -> _Table:
    sol = rect_mod.solve_rect(cfg.physical_params(), cfg.rect_barrier())
    columns = {"P": rect_mod.transmission_probability(sol).closed_form,
               "t_roll": rect_mod.rolling_time(sol), "k": sol.k, "beta": sol.beta}
    for name in "ABCFG":
        amp = getattr(sol, name)
        columns[f"{name}_re"], columns[f"{name}_im"] = amp.real, amp.imag
    return _csv_table(cfg, columns)


def _run_mode_evolve(cfg: RunConfig) -> _Table:
    from . import modes as modes_mod

    bg = rect_mod.classical_trajectory(
        rect_mod.solve_rect(cfg.physical_params(), cfg.rect_barrier()))
    if cfg["rho"] is not None:
        bg = rect_mod.TanhBackground(amplitude_a=bg.amplitude_a, rho=cfg["rho"])
    cfg.check_time_scale(bg.rho)  # RunConfig checks only a configured rho
    # t_min..t_max are in units of 1/rho; the evolution starts in the vacuum
    ts = np.linspace(cfg["t_min"], cfg["t_max"], cfg["grid_points"]) / bg.rho
    mode, *others = cfg.env_modes()
    if others:
        raise ConfigError(f"mode-evolve evolves one mode, got {1 + len(others)}")
    # the Magnus step budget, then the exact mode function in blocks of one 2F1
    # kernel call, then the ODE: a run the budget or the 2F1 refuses costs no ODE
    modes_mod.magnus_steps(mode, bg, ts)
    alpha2_xi, beta_xi = np.empty((2, ts.size))
    for blk in modes_mod.grid_blocks(1, ts.size):
        st = modes_mod.state_from_xi(mode, modes_mod.xi_analytic([mode], bg, ts[blk]))
        alpha2_xi[blk], beta_xi[blk] = st.alpha[0]**2, st.beta[0]
    traj = modes_mod.evolve_gaussian(mode, bg, ts)
    return _csv_table(cfg, {"t": traj.t, "alpha2_ode": traj.alpha**2, "beta_ode": traj.beta,
                            "alpha2_xi": alpha2_xi, "beta_xi": beta_xi})


def _run_backreaction(cfg: RunConfig) -> _Table:
    from . import backreaction as br

    sol, prof = _mode_backreaction(cfg)
    return _csv_table(cfg, {
        "x": prof.xs, "V": prof.v, "V_eff": prof.v_eff, "delta_V": prof.delta_v,
        "Q1": prof.q1, "Q2": prof.q2, "p0": prof.p0, "delta_V_bar": prof.delta_v_bar,
        "P_modified": br.modified_probability(sol, prof.delta_v_bar),
    })


def _run_sweep(cfg: RunConfig) -> _Table:
    key, vals = cfg.sweep()
    ps, t_rolls = [], []
    for val in vals:
        sub = RunConfig(scenario="rect", values={**cfg.values, key: val})
        sol = rect_mod.solve_rect(sub.physical_params(), sub.rect_barrier())
        ps.append(rect_mod.transmission_probability(sol).closed_form)
        t_rolls.append(rect_mod.rolling_time(sol))
    return _csv_table(cfg, {key: vals, "P": ps, "t_roll": t_rolls})


# each runner imports wkb, modes or backreaction itself, so rect, sweep,
# fig1a and fig1b (and validate on them) do not pay for importing them
_RUNNERS = {
    "fig1a": _run_fig1,
    "fig1b": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "rect": _run_rect,
    "wkb": _run_fig2,
    "mode-evolve": _run_mode_evolve,
    "backreaction": _run_backreaction,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig, out_path: str | os.PathLike) -> None:
    """Execute one scenario and write its CSV atomically (all or nothing).

    The header and then each block of rows that ``csvfmt.csv_rows`` formats
    go, as bytes, to a temporary file in the target directory, which then
    replaces the target; the whole text is never held in memory.  An
    OSError propagates and leaves no file behind.
    """
    header, cols = _RUNNERS[cfg.scenario](cfg)
    from .csvfmt import csv_rows  # builds its tables on first import

    if "\0" in os.fspath(out_path):  # open() would raise ValueError, not OSError
        raise OSError("embedded null byte")
    # a fixed-length name fits beside any target name; dirname of the text, as
    # pathlib drops a trailing separator, which open() keeps
    tmp = os.path.join(os.path.dirname(os.fspath(out_path)), f".qtunnel-{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header.encode())
            fh.writelines(csv_rows(cols))
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__.split("\n\n")[1])
        return 0
    validate = argv[:1] == ["validate"]  # how a malformed flag is reported
    try:
        word, flags = cfgmod.parse_flags(argv)
        validate = word == "validate"
        path = flags.pop("config", None)
        if validate and not path:
            raise ConfigError("validate requires --config")
        file_values = cfgmod.load_config(path) if path else {}
        out = flags.get("out") or file_values.get("out")
        if not (validate or out):
            raise ConfigError("--out is required")
        # the word names the scenario; validate, or an empty word, takes the file's key
        file_scenario = file_values.pop("scenario", None)
        scenario = word if word and not validate else file_scenario
        if scenario is None:
            raise ConfigError("no scenario given (argument or scenario= key)")
        cfg = RunConfig(scenario, {**file_values, **flags})
        if validate:
            _RUNNERS[cfg.scenario](cfg)
        else:
            run(cfg, out)
    except (ConfigError, QTunnelError) as exc:
        if isinstance(exc, ConfigError):
            loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
            line = f"config error: {exc}{loc}"
        else:
            line = f"{cfg.scenario} failed: {type(exc).__name__}: {exc}"
        if validate:
            print(line)
            print("1 invariant violation")
            return 2
        print(line, file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DomainError)) else 3
    except OSError as exc:
        print(f"output error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if validate:
        print("config clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
