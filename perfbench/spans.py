"""Per-layer tracing from outside the program, and host-speed normalization.

``Tracer.install`` wraps the public functions of qtunnel's modules.  Each
call of a wrapped function records a span (layer, start, end, parent span)
in compact in-memory arrays; nothing is written until the run ends.  A
layer's self time is its spans' durations minus the part their child spans
cover.  Every module attribute that holds a wrapped function is rebound, so
names imported with ``from .x import f`` are traced too.  A function that
no longer exists is skipped, and a layer none of whose functions exist is
reported as missing.

``calibrate`` times a fixed kernel; ``normalized`` scales a wall time by it
to the speed of an idle reference host.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# layer -> (module, attribute) pairs; "Class.method" patches the class
LAYERS = {
    "cli": [("cli", "main")],
    "config": [("config", name) for name in (
        "load_config", "parse_config_text", "build_config", "diagnostics", "validate_file",
        "RunConfig.physical_params", "RunConfig.rect_barrier", "RunConfig.env_modes",
        "RunConfig.polynomial", "RunConfig.smooth_potential", "RunConfig.bracket",
        "RunConfig.sweep", "RunConfig.canonical")],
    "rect": [("rect", name) for name in (
        "solve_rect", "transmission_probability", "rolling_time", "potential_profile",
        "classical_trajectory", "kinetic_density_region2", "total_potential_region2",
        "quantum_potential", "wavefunction", "wavefunction_dx", "amplitude",
        "probability_current")],
    "wkb.turning_points": [("wkb", "find_turning_points")],
    "wkb.total_potential": [("wkb", "wkb_total_potential")],
    "wkb.other": [("wkb", "rho_general")],
    "modes.xi": [("modes", "xi_analytic"), ("modes", "xi_trajectory")],
    "modes.evolve": [("modes", "evolve_gaussian")],
    "modes.other": [("modes", "log_derivative_2"), ("modes", "state_from_xi"),
                    ("modes", "omega_t")],
    "backreaction.q_factors": [("backreaction", "q_factors")],
    "backreaction.effective_potential": [("backreaction", "effective_potential")],
    "backreaction.other": [("backreaction", name) for name in (
        "rect_mode_backreaction", "multi_mode_superpose", "modified_probability",
        "series_coefficients", "gaussian_average_check")],
    # counted at hyp2f1_ex, so a call through hyp2f1 or hyp2f1_dz counts once
    "specfun.hyp2f1": [("specfun", "hyp2f1_ex")],
    "specfun.log_gamma": [("specfun", "log_gamma")],
}
# counted, not timed: their time stays in the calling layer
COUNTED = {
    "wkb.potential_evals": [("core", "SmoothPotential.__call__"),
                            ("core", "SmoothPotential.derivative")],
}


def _on_hyp2f1(tracer, result):
    tracer.counts["specfun.hyp2f1.terms"] += result.terms
    tracer.counts["specfun.hyp2f1.degraded"] += bool(result.degraded)


def _on_q_factors(tracer, result):
    tracer.counts["backreaction.trimmed"] += bool(result.trimmed)


_RESULT_HOOKS = {"hyp2f1_ex": _on_hyp2f1, "q_factors": _on_q_factors}


class Tracer:
    """Spans of one traced pass, kept in memory until ``layer_totals``."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer_ids = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTED}
        self.counts.update({"specfun.hyp2f1.terms": 0, "specfun.hyp2f1.degraded": 0,
                            "backreaction.trimmed": 0})
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _timed(self, layer: str, fn):
        lid = self.layer_ids[layer]
        hook = _RESULT_HOOKS.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function that exists; record missing layers."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qtunnel" or name.startswith("qtunnel.")}
        for table, make in ((LAYERS, self._timed), (COUNTED, self._counted)):
            for layer, targets in table.items():
                found = 0
                for mod_name, attr in targets:
                    owner = modules.get("qtunnel." + mod_name)
                    *cls, name = attr.split(".")
                    if owner is not None and cls:
                        owner = getattr(owner, cls[0], None)
                    fn = getattr(owner, name, None) if owner is not None else None
                    if not callable(fn):
                        continue
                    found += 1
                    wrapped = make(layer, fn)
                    if cls:
                        self._patch(owner, name, wrapped)
                        continue
                    for mod in modules.values():
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._patch(mod, key, wrapped)
                if not found:
                    self.missing.append(layer)

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} from the recorded spans."""
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = np.bincount(layer, weights=dur - covered, minlength=len(self.layers))
        calls = np.bincount(layer, minlength=len(self.layers))
        return {name: (int(calls[i]), float(self_time[i]))
                for i, name in enumerate(self.layers)}


# The calibration kernel's time on an idle host: a 2-core x86-64 VM with
# Python 3.11 and numpy 2.4 takes 4.6-5.0 ms.
REFERENCE_MS = 5.0


def calibrate() -> float:
    """Milliseconds for a fixed kernel shaped like the program's hot paths:
    a pure-Python complex Gauss series over a z grid plus a numpy pass."""
    start = time.perf_counter()
    a, b, c = 1.0 - 0.3j, -0.3j, 1.0 + 0.5j
    acc = 0j
    for k in range(300):
        z = 0.5 * k / 300
        term = total = 1.0 + 0j
        for n in range(40):
            term *= (a + n) * (b + n) * z / ((c + n) * (n + 1))
            total += term
        acc += total
    x = np.linspace(0.0, 1.0, 100_000)
    acc += float(np.cumsum(np.sin(x))[-1])
    if not math.isfinite(acc.real):
        raise ArithmeticError("calibration kernel diverged")
    return (time.perf_counter() - start) * 1000.0


def normalized(seconds: float, calib_ms: float) -> float:
    """A wall time scaled to the reference host speed.

    Other tenants' load slows this host by up to half, in bursts that last
    from seconds to minutes, and the program and the kernel slow together.
    Scaling each timing by REFERENCE_MS over the kernel's time measured
    around it removes most of that drift (the spread of a run's figures
    across runs fell from ~16% to ~4% on mode-sweep)."""
    return seconds * REFERENCE_MS / calib_ms
