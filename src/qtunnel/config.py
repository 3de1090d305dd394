"""Run configuration: plain-text key=value files, defaults, value checks.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment.  CLI flags (``parse_flags``) mirror the keys one-to-one, convert
alike and override file values; unknown keys and flags are rejected.
Scenario-specific defaults fill whatever the user leaves unset (the
smooth-barrier scenarios default to the quadratic barrier at E = 1, everything
else to the rectangular-barrier set E = 2, V0 = 4, a = 1, m = 1, omega0 = 1,
c = 0.15 in hbar = M = 1 units).

``RunConfig`` rejects only the grid values no scenario checks itself
(finite x and t ranges, spans, max|t|/rho and the vacuum start 12/rho,
x_min < x_max, t_min < t_max, rho > 0, 16 to 2^22 grid points).
Everything else is checked where it is used: the accessors raise
``ConfigError`` on values they cannot parse, and the physics raises its own
errors, which ``validate`` finds by running the scenario.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .core import VACUUM_SATURATION, EnvMode, PhysicalParams, RectBarrier, SmoothPotential


def _header_text(value: str) -> str:
    """``value``, if the CSV's one-line UTF-8 header can hold it; ValueError on
    a line break (where ``str.splitlines`` splits) or on a character UTF-8
    cannot encode (an undecodable argv byte arrives as a lone surrogate)."""
    value.encode()  # UnicodeEncodeError is a ValueError
    if "".join(value.splitlines()) != value:
        raise ValueError(f"line break in {value!r}")
    return value


# keys a config file or the CLI may set, with the type that parses their values
KEY_TYPES = {
    **dict.fromkeys(("E", "V0", "a", "hbar", "M", "m", "omega0", "c",
                     "x_min", "x_max", "t_min", "t_max", "rho"), float),
    "grid_points": int,
    "scenario": str,
    "out": str,  # a path, which the header leaves out: it may hold a line break
    **dict.fromkeys(("poly", "bracket", "modes", "sweep_key", "sweep_values"), _header_text),
}

# the command line's flags: --config, and one per key but scenario, "_" spelled "-"
_FLAG_KEYS = {"--config": "config",
              **{"--" + key.replace("_", "-"): key for key in KEY_TYPES if key != "scenario"}}

_BASE_DEFAULTS = {
    "E": 2.0, "V0": 4.0, "a": 1.0, "hbar": 1.0, "M": 1.0,
    "m": 1.0, "omega0": 1.0, "c": 0.15,
    "poly": "1,8,-8",
    "bracket": "-0.5,1.5",
    "grid_points": 2000,
    "sweep_key": "a",
    "sweep_values": "1,2,3,4,5",
}

# 16x the largest grid measured (262,144 points; mode-evolve, the largest,
# ~320 B a point at peak): ~1.3 GB, so larger grids are refused before any
# array is allocated
_MAX_GRID_POINTS = 2**22

# every scenario, in the order the "choose from" texts list them, with its defaults
_SCENARIO_DEFAULTS = {
    "fig1a": {"x_min": -0.5, "x_max": 1.5},
    "fig1b": {"x_min": -6.0, "x_max": 3.0},
    "fig2": {"E": 1.0},
    "fig3": {},
    "rect": {},
    "wkb": {"E": 1.0},
    "mode-evolve": {"t_min": -10.0, "t_max": 10.0, "grid_points": 801},
    "backreaction": {},
    "sweep": {},
}
SCENARIOS = tuple(_SCENARIO_DEFAULTS)


class ConfigError(Exception):
    """Invalid configuration: syntax or content."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class RunConfig:
    """Scenario plus every tunable the scenarios consume.

    Each value holds its ``KEY_TYPES`` type as given: ``_convert`` types file
    lines and flags, the default tables are typed, and a sweep passes the
    floats of ``_numbers``; nothing here converts a value again.
    """

    __slots__ = ("scenario", "values")

    def __init__(self, scenario: str, values: dict | None = None):
        if scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
            )
        self.scenario = scenario
        self.values = {**_BASE_DEFAULTS, **_SCENARIO_DEFAULTS[scenario], **(values or {})}
        # grid values no runner checks itself
        for key in ("x_min", "x_max", "t_min", "t_max", "rho"):
            if self[key] is not None and not math.isfinite(self[key]):
                raise ConfigError(f"{key} must be finite, got {self[key]}")
        if self["rho"] is not None and self["rho"] <= 0:
            raise ConfigError(f"rho must be positive, got {self['rho']}")
        # numpy spaces each grid by its span, and mode-evolve divides t by rho
        for lo, hi in (("x_min", "x_max"), ("t_min", "t_max")):
            if None in (self[lo], self[hi]):
                continue
            if self[lo] >= self[hi]:
                raise ConfigError(f"{lo} = {self[lo]} must be below {hi} = {self[hi]}")
            if math.isinf(self[hi] - self[lo]):
                raise ConfigError(f"{hi} - {lo} leaves double range ({self[lo]} to {self[hi]})")
        if self["rho"] is not None:
            self.check_time_scale(self["rho"])
        if self["grid_points"] < 16:
            raise ConfigError("grid_points must be at least 16")
        if self["grid_points"] > _MAX_GRID_POINTS:
            raise ConfigError(f"grid_points must be at most 2^22 = {_MAX_GRID_POINTS}, "
                              f"got {self['grid_points']}")

    def __getitem__(self, key: str):
        return self.values.get(key)

    def check_time_scale(self, rho: float) -> None:
        """ConfigError unless mode-evolve's times at this rho, t/rho over the
        t range and the vacuum start -12/rho, are finite doubles."""
        t_abs = max(abs(self[key] or 0.0) for key in ("t_min", "t_max"))
        if rho == 0.0 or math.isinf(t_abs / rho):
            raise ConfigError(f"max|t|/rho = {t_abs}/{rho} leaves double range")
        if math.isinf(VACUUM_SATURATION / rho):
            raise ConfigError(f"rho = {rho} puts the vacuum start -{VACUUM_SATURATION:g}/rho "
                              "past double range")

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            energy_E=self.values["E"], hbar=self.values["hbar"], mass_M=self.values["M"]
        )

    def rect_barrier(self) -> RectBarrier:
        return RectBarrier(height_V0=self.values["V0"], width_a=self.values["a"])

    def env_modes(self) -> list[EnvMode]:
        """Mode list: the ``modes`` key (semicolon-separated m:omega0:c
        triples) if present, else the single (m, omega0, c) set."""
        spec = self.values.get("modes")
        if spec:
            out = []
            for i, part in enumerate(spec.split(";")):
                if part.count(":") != 2:
                    raise ConfigError(f"modes entry {i + 1} must be m:omega0:c, got {part!r}")
                m, om0, c = _numbers(part, ":", f"modes entry {i + 1}")
                out.append(EnvMode(mass_m=m, omega0=om0, coupling_c=c))
            return out
        return [EnvMode(mass_m=self.values["m"], omega0=self.values["omega0"],
                        coupling_c=self.values["c"])]

    def polynomial(self) -> list[float]:
        coeffs = _numbers(self.values["poly"], ",", "poly must be comma-separated numbers")
        if not all(math.isfinite(ci) for ci in coeffs):
            raise ConfigError(f"poly coefficients must be finite, got {coeffs}")
        return coeffs

    def smooth_potential(self) -> SmoothPotential:
        """The ``poly`` barrier sum(ci * x**i) and its derivative, elementwise
        on numpy arrays."""
        coeffs = self.polynomial()
        slopes = [i * ci for i, ci in enumerate(coeffs) if i > 0]
        return SmoothPotential(functools.partial(_power_sum, coeffs),
                               functools.partial(_power_sum, slopes))

    def bracket(self) -> tuple[float, float]:
        ends = _numbers(self.values["bracket"], ",", "bracket must be 'lo,hi'")
        if len(ends) != 2:
            raise ConfigError(f"bracket must be 'lo,hi', got {self.values['bracket']!r}")
        lo, hi = ends
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"bracket must be finite with lo < hi, got {lo},{hi}")
        if math.isinf(hi - lo):  # the root scans space their nodes by the span
            raise ConfigError(f"bracket span leaves double range ({lo} to {hi})")
        return lo, hi

    def sweep(self) -> tuple[str, list[float]]:
        key = self.values["sweep_key"]
        if key not in ("a", "V0", "E"):
            raise ConfigError(f"sweep_key must be one of a, V0, E; got {key!r}")
        return key, _numbers(self.values["sweep_values"], ",",
                             "sweep_values must be comma-separated numbers")

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


def _power_sum(coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """sum(ci * x**i for i, ci in enumerate(coeffs)) on an array x, to the bit:
    the same terms added in the same order onto 0 + c0 (so a c0 of -0.0 reads
    0.0), without the generator or the x**0 and x**1 passes."""
    if len(coeffs) < 2:
        return np.full(x.shape, 0.0 + (coeffs[0] if coeffs else 0.0))
    total = (0.0 + coeffs[0]) + coeffs[1] * x
    for i in range(2, len(coeffs)):
        total += coeffs[i] * x**i
    return total


def _numbers(text: str, sep: str, what: str) -> list[float]:
    """The fields of ``text`` split at ``sep``, as floats; an empty field
    fails.  ConfigError "<what>: <reason>" names the first that is no number."""
    try:
        return [float(v) for v in text.split(sep)]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


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
        if key not in KEY_TYPES:
            col = raw.index(key) + 1 if key and key in raw else 1
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}", line=lineno, column=col
            )
        out[key] = _convert(key, value, f"line {lineno}", lineno, raw)
    return out


def parse_flags(argv: list[str]) -> tuple[str, dict]:
    """The command line's one word (a scenario, or ``validate``) and its flags,
    ``--key value`` or ``--key=value``, each value converted as a file line's
    is (``--config``'s, a path, kept).  ConfigError names the flag it cannot read."""
    words, flags = [], {}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            words.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in _FLAG_KEYS:
            raise ConfigError(f"unknown flag {flag!r}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"flag {flag}: no value")
        key = _FLAG_KEYS[flag]
        flags[key] = value if key == "config" else _convert(key, value, f"flag {flag}")
    if len(words) != 1:
        raise ConfigError(f"expected one scenario word ({', '.join(SCENARIOS)} or validate), "
                          f"got {' '.join(words) or 'none'}")
    return words[0], flags


def _convert(key: str, value: str, where: str, line: int | None = None, raw: str = ""):
    """``value`` read by its key's type; ConfigError "<where>: bad value ..."
    if it does not convert, at its column of the file line ``raw``."""
    try:
        return KEY_TYPES[key](value)
    except ValueError:
        col = raw.index(value) + 1 if value and value in raw else 1
        raise ConfigError(f"{where}: bad value {value!r} for {key}", line, col) from None


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is no key
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config_text(text)

