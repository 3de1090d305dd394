"""Run configuration: plain-text key=value files, defaults, validation.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment.  CLI flags mirror the keys one-to-one and override file values.
Unknown keys are rejected.  Scenario-specific defaults fill whatever the
user leaves unset (the smooth-barrier scenarios default to the quadratic
barrier at E = 1, everything else to the rectangular-barrier set E = 2,
V0 = 4, a = 1, m = 1, omega0 = 1, c = 0.15 in hbar = M = 1 units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import EnvMode, PhysicalParams, RectBarrier, SmoothPotential, wave_numbers
from .errors import DomainError, PrecisionError, StiffnessError
from .rect import TanhBackground, check_thickness, classical_trajectory, solve_rect

SCENARIOS = (
    "fig1a",
    "fig1b",
    "fig2",
    "fig3",
    "rect",
    "wkb",
    "mode-evolve",
    "backreaction",
    "sweep",
)

# keys a config file or the CLI may set, with their parsers
_FLOAT_KEYS = (
    "E", "V0", "a", "hbar", "M", "m", "omega0", "c",
    "x_min", "x_max", "t_min", "t_max", "rho",
)
_INT_KEYS = ("grid_points",)
_STR_KEYS = ("scenario", "poly", "bracket", "modes", "sweep_key", "sweep_values", "out")
KNOWN_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS

_BASE_DEFAULTS = {
    "E": 2.0, "V0": 4.0, "a": 1.0, "hbar": 1.0, "M": 1.0,
    "m": 1.0, "omega0": 1.0, "c": 0.15,
    "poly": "1,8,-8",
    "bracket": "-0.5,1.5",
    "grid_points": 2000,
    "sweep_key": "a",
    "sweep_values": "1,2,3,4,5",
}

_SCENARIO_DEFAULTS = {
    "fig1a": {"x_min": -0.5, "x_max": 1.5},
    "fig1b": {"x_min": -6.0, "x_max": 3.0},
    "fig2": {"E": 1.0},
    "wkb": {"E": 1.0},
    "mode-evolve": {"t_min": -10.0, "t_max": 10.0, "grid_points": 801},
}


class ConfigError(Exception):
    """Invalid configuration: syntax or content."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass
class RunConfig:
    """Scenario plus every tunable the scenarios consume."""

    scenario: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIOS)}"
            )
        merged = dict(_BASE_DEFAULTS)
        merged.update(_SCENARIO_DEFAULTS.get(self.scenario, {}))
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values.get(key)

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            energy_E=float(self.values["E"]),
            hbar=float(self.values["hbar"]),
            mass_M=float(self.values["M"]),
        )

    def rect_barrier(self) -> RectBarrier:
        return RectBarrier(
            height_V0=float(self.values["V0"]), width_a=float(self.values["a"])
        )

    def env_modes(self) -> list[EnvMode]:
        """Mode list: the ``modes`` key (semicolon-separated m:omega0:c
        triples) if present, else the single (m, omega0, c) set."""
        spec = self.values.get("modes")
        if spec:
            out = []
            for i, part in enumerate(str(spec).split(";")):
                fields = part.split(":")
                if len(fields) != 3:
                    raise ConfigError(
                        f"modes entry {i + 1} must be m:omega0:c, got {part!r}"
                    )
                try:
                    m, om0, c = (float(v) for v in fields)
                except ValueError as exc:
                    raise ConfigError(f"modes entry {i + 1}: {exc}") from exc
                out.append(EnvMode(mass_m=m, omega0=om0, coupling_c=c))
            return out
        return [
            EnvMode(
                mass_m=float(self.values["m"]),
                omega0=float(self.values["omega0"]),
                coupling_c=float(self.values["c"]),
            )
        ]

    def polynomial(self) -> list[float]:
        try:
            coeffs = [float(v) for v in str(self.values["poly"]).split(",")]
        except ValueError as exc:
            raise ConfigError(f"poly must be comma-separated numbers: {exc}") from exc
        if not coeffs:
            raise ConfigError("poly needs at least one coefficient")
        if not all(math.isfinite(ci) for ci in coeffs):
            raise ConfigError(f"poly coefficients must be finite, got {coeffs}")
        return coeffs

    def smooth_potential(self) -> SmoothPotential:
        """The ``poly`` barrier sum(ci * x**i), on floats or numpy arrays.

        Floats go through numpy too: Python's float power and numpy's array
        power differ in the last bit, and a float call must return exactly
        the element an array call returns.
        """
        coeffs = self.polynomial()

        def value(x):
            x = np.asarray(x, dtype=float)
            return sum(ci * x**i for i, ci in enumerate(coeffs))

        def derivative(x):
            x = np.asarray(x, dtype=float)
            return sum(i * ci * x ** (i - 1) for i, ci in enumerate(coeffs) if i > 0)

        return SmoothPotential(value, derivative)

    def bracket(self) -> tuple[float, float]:
        try:
            lo, hi = (float(v) for v in str(self.values["bracket"]).split(","))
        except ValueError as exc:
            raise ConfigError(f"bracket must be 'lo,hi': {exc}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"bracket must be finite with lo < hi, got {lo},{hi}")
        return lo, hi

    def sweep(self) -> tuple[str, list[float]]:
        key = str(self.values["sweep_key"])
        if key not in ("a", "V0", "E"):
            raise ConfigError(f"sweep_key must be one of a, V0, E; got {key!r}")
        try:
            vals = [float(v) for v in str(self.values["sweep_values"]).split(",")]
        except ValueError as exc:
            raise ConfigError(f"sweep_values must be comma-separated numbers: {exc}") from exc
        if not vals:
            raise ConfigError("sweep_values must not be empty")
        return key, vals

    def mode_evolve_run(self) -> tuple[EnvMode, TanhBackground, np.ndarray]:
        """(first mode, tanh background with the ``rho`` key's rho if set, times):
        the vacuum start, then the t_min..t_max grid in units of 1/rho."""
        from .modes import vacuum_start_time
        bg = classical_trajectory(solve_rect(self.physical_params(), self.rect_barrier()))
        if self["rho"] is not None:
            bg = TanhBackground(amplitude_a=bg.amplitude_a, rho=float(self["rho"]))
        ts = np.linspace(float(self["t_min"]), float(self["t_max"]),
                         int(self["grid_points"])) / bg.rho
        return self.env_modes()[0], bg, np.concatenate(([min(vacuum_start_time(bg), ts[0])], ts))

    def canonical(self) -> str:
        """Deterministic one-line serialization of the effective values."""
        parts = []
        for key in sorted(self.values):
            val = self.values[key]
            if val is None or key == "out":
                continue
            if isinstance(val, float):
                parts.append(f"{key}={val:.12g}")
            else:
                parts.append(f"{key}={val}")
        return " ".join(parts)


def parse_config_text(text: str) -> dict:
    """Parse key=value lines; raises ConfigError with line/column on bad syntax."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError(
                f"line {lineno}: expected key=value", line=lineno, column=col
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            col = raw.index(key) + 1 if key and key in raw else 1
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}", line=lineno, column=col
            )
        out[key] = _convert(key, value, lineno, raw)
    return out


def _convert(key: str, value: str, lineno: int, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        return value
    except ValueError:
        col = raw.index(value) + 1 if value and value in raw else 1
        raise ConfigError(
            f"line {lineno}: bad value {value!r} for {key}", line=lineno, column=col
        ) from None


def load_config(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def build_config(scenario: str | None, file_values: dict, overrides: dict) -> RunConfig:
    """Merge file values and CLI overrides; CLI wins, then defaults fill in."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    scen = scenario or merged.pop("scenario", None)
    if scen is None:
        raise ConfigError("no scenario given (argument or scenario= key)")
    merged.pop("scenario", None)
    return RunConfig(scenario=str(scen), values=merged)


def diagnostics(cfg: RunConfig) -> list[str]:
    """Invariant violations the run would hit: the ``config_problems``, then
    barriers too thick for double range and mode-evolve grids past the step
    budget (a run fails on those as a numerical error, exit 3)."""
    problems, limits = _diagnose(cfg)
    return problems + limits


def config_problems(cfg: RunConfig) -> list[str]:
    """The violations a run rejects as a configuration error."""
    return _diagnose(cfg)[0]


def _diagnose(cfg: RunConfig) -> tuple[list[str], list[str]]:
    """(config problems, numerical limits) of ``cfg``."""
    problems: list[str] = []
    limits: list[str] = []

    def check(fn, label: str):
        try:
            return fn()
        except (DomainError, ConfigError, PrecisionError, StiffnessError) as exc:
            found = problems if isinstance(exc, (DomainError, ConfigError)) else limits
            found.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check_rect(run_cfg: RunConfig, where: str = "") -> None:
        params = check(run_cfg.physical_params, "params" + where)
        barrier = check(run_cfg.rect_barrier, "barrier" + where)
        if params is not None and barrier is not None:
            check(lambda: check_thickness(wave_numbers(params, barrier)[1], barrier.width_a),
                  "barrier" + where)

    # a sweep solves only its sweep points, checked below
    if cfg.scenario in ("fig1a", "fig1b", "fig3", "rect", "backreaction", "mode-evolve"):
        check_rect(cfg)
    elif cfg.scenario != "sweep":
        check(cfg.physical_params, "params")
    if cfg.scenario in ("fig3", "backreaction", "mode-evolve"):
        for mode in check(cfg.env_modes, "modes") or []:
            om2_min = min(
                mode.omega0**2,
                mode.omega0**2 + 4.0 * mode.coupling_c * float(cfg["a"]) / mode.mass_m,
            )
            if om2_min <= 0:
                problems.append(
                    f"modes: TachyonicModeError: omega^2 reaches {om2_min:.3g}"
                )
    if cfg.scenario in ("fig2", "wkb"):
        check(cfg.smooth_potential, "potential")
        check(cfg.bracket, "bracket")
    if cfg.scenario == "sweep":
        key, vals = check(cfg.sweep, "sweep") or (None, [])
        for val in vals:
            check_rect(RunConfig(scenario="rect", values={**cfg.values, key: val}),
                       f" ({key} = {val:g})")
    for key in ("x_min", "x_max", "t_min", "t_max", "rho"):
        if cfg[key] is not None and not math.isfinite(float(cfg[key])):
            problems.append(f"grid: DomainError: {key} must be finite, got {cfg[key]}")
    if cfg["rho"] is not None and float(cfg["rho"]) <= 0:
        problems.append(f"grid: DomainError: rho must be positive, got {cfg['rho']}")
    if (cfg["t_min"] is not None and cfg["t_max"] is not None
            and float(cfg["t_min"]) >= float(cfg["t_max"])):
        problems.append(
            f"grid: DomainError: t_min = {cfg['t_min']} must be below t_max = {cfg['t_max']}"
        )
    if cfg["grid_points"] is not None and int(cfg["grid_points"]) < 16:
        problems.append("grid: DomainError: grid_points must be at least 16")
    if cfg.scenario == "mode-evolve" and not (problems or limits):
        from .modes import magnus_steps  # a run past the step budget exits 3
        check(lambda: magnus_steps(*cfg.mode_evolve_run()), "modes")
    return problems, limits
