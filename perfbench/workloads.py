"""Seeded operation generators for the four benchmark workloads.

An operation ("op") is one qtunnel CLI invocation: a scenario, the flags that
set its inputs, optionally a config file, and the effective parameters the
output checks need.  Every workload is a closed loop with one client that
repeats a fixed *cycle* of op shapes (scenario, grid size, mode count).  The
seed draws the physical parameters of each op and the order of the ops
inside a cycle; the multiset of shapes is the same for every seed, so the
median and tail of op times compare across seeds and commits.

Cycle ``i`` of a workload depends only on (workload, seed, i): the same seed
always gives the same inputs.
"""

from __future__ import annotations

import random

# Distinct op cycles per run.  A run repeats all of its ops in rounds, at
# least MIN_ROUNDS and until the run length is reached, and an op's time is
# the best of its rounds.  A cold op already lasts ~1 s, so cli-cold runs
# one round; the in-process workloads run two to four, and a rerun must
# reproduce its first output byte for byte.  Rounds and cycles are sized to
# keep a run near 30 s on a loaded 2-core host.
CYCLES_PER_RUN = {
    "cli-cold": 2,
    "backreaction-dense": 3,
    "mode-sweep": 4,
    "smooth-barrier": 4,
}
MIN_ROUNDS = {
    "cli-cold": 1,
    "backreaction-dense": 2,
    "mode-sweep": 3,
    "smooth-barrier": 4,
}

WORKLOADS = tuple(CYCLES_PER_RUN)

COLUMNS = {
    "fig1a": ["x", "V", "V_tot", "E"],
    "fig1b": ["x", "V", "V_tot", "E"],
    "fig2": ["x", "V", "V_tot", "E"],
    "wkb": ["x", "V", "V_tot", "E", "rho_general"],
    "fig3": ["x", "V", "V_eff", "Q1", "Q2"],
    "backreaction": ["x", "V", "V_eff", "delta_V", "Q1", "Q2", "p0",
                     "delta_V_bar", "P_modified"],
    "mode-evolve": ["t", "alpha2_ode", "beta_ode", "alpha2_xi", "beta_xi"],
    "rect": ["P", "t_roll", "k", "beta", "A_re", "A_im", "B_re", "B_im",
             "C_re", "C_im", "F_re", "F_im", "G_re", "G_im"],
    "sweep": None,  # first column is the sweep key
}
DEFAULT_GRID = {"mode-evolve": 801}


def _num(x: float) -> float:
    """Round a draw so its decimal text and its float are the same number."""
    return round(x, 6)


# Parameter draws stay within ~10% of the reference set: an op's cost moves
# with its parameters, and narrow draws keep each op shape's cost, and so
# the run's median and tail, the same from seed to seed.
def _rect_params(rng: random.Random) -> dict:
    """Rectangular barrier around the reference set E = 2, V0 = 4, a = 1."""
    return {"E": _num(rng.uniform(1.8, 2.2)), "V0": _num(rng.uniform(3.8, 4.3)),
            "a": _num(rng.uniform(0.9, 1.1))}


def _modes(rng: random.Random, n: int, c_lo: float, c_hi: float) -> list:
    return [(_num(rng.uniform(0.9, 1.1)), _num(rng.uniform(0.9, 1.1)),
             _num(rng.uniform(c_lo, c_hi))) for _ in range(n)]


def _quadratic_barrier(rng: random.Random) -> dict:
    """V(x) = top - kappa (x - xc)^2 at energy E, inside the patch-window
    condition 0.8 (1/gamma_l + 1/gamma_r) < gap with a 25% margin, so the
    WKB construction never raises ThinBarrierError."""
    while True:
        kappa = rng.uniform(7.0, 9.0)
        depth = rng.uniform(1.8, 2.4)  # top - E
        xc = rng.uniform(0.4, 0.6)
        E = rng.uniform(0.9, 1.1)
        half = (depth / kappa) ** 0.5
        gamma = (2.0 * 2.0 * kappa * half) ** (1.0 / 3.0)
        if 0.8 * 2.0 / gamma < 0.75 * 2.0 * half:
            break
    coeffs = [_num(E + depth - kappa * xc * xc), _num(2.0 * kappa * xc), _num(-kappa)]
    return {"E": _num(E), "poly": coeffs,
            "bracket": (_num(xc - half - 0.5), _num(xc + half + 0.5))}


def make_op(scenario: str, params: dict, grid: int | None = None,
            use_config: bool = False) -> dict:
    """Render parameters as argv flags (or a config file) for one op."""
    params = dict(params)
    if grid is not None:
        params["grid_points"] = grid
    values = {}
    for key, val in params.items():
        if key == "modes":
            if len(val) == 1:
                values.update(m=val[0][0], omega0=val[0][1], c=val[0][2])
            else:
                values["modes"] = ";".join(f"{m}:{w}:{c}" for m, w, c in val)
        elif key in ("poly", "bracket", "sweep_values"):
            values[key] = ",".join(repr(v) for v in val)
        else:
            values[key] = val
    if use_config:
        argv, config = [scenario], {"scenario": scenario, **values}
    else:
        argv, config = [scenario], None
        for key, val in values.items():
            argv.append(f"--{key.replace('_', '-')}={val}")
    return {"scenario": scenario, "argv": argv, "config": config,
            "params": params, "probe": None}


def _cli_cold_cycle(rng: random.Random, index: int) -> list:
    ops = []
    for scen in ("fig1a", "fig1b", "rect", "mode-evolve"):
        params = _rect_params(rng)
        if scen == "mode-evolve":
            params["modes"] = _modes(rng, 1, 0.1, 0.2)
        ops.append(make_op(scen, params, use_config=rng.random() < 0.5))
    params = _rect_params(rng)
    params["modes"] = _modes(rng, 1, 0.1, 0.2)
    ops.append(make_op("fig3", params, use_config=rng.random() < 0.5))
    params = _rect_params(rng)
    params["modes"] = _modes(rng, 2, 0.05, 0.15)
    ops.append(make_op("backreaction", params, use_config=rng.random() < 0.5))
    for scen in ("fig2", "wkb"):
        ops.append(make_op(scen, _quadratic_barrier(rng), use_config=rng.random() < 0.5))
    ops.append(make_op("sweep", _sweep_params(rng), use_config=rng.random() < 0.5))
    # validate always reads a config file: a clean one of a rect scenario
    # and one with environment modes
    for target in (rng.choice(["rect", "fig1a", "sweep"]), rng.choice(["fig3", "backreaction"])):
        params = _rect_params(rng)
        if target in ("fig3", "backreaction"):
            params["modes"] = _modes(rng, 2, 0.05, 0.15)
        op = make_op(target, params, use_config=True)
        op.update(scenario="validate", argv=["validate"])
        ops.append(op)
    return ops


def _sweep_params(rng: random.Random) -> dict:
    params = _rect_params(rng)
    key = rng.choice(["a", "V0", "E"])
    if key == "a":
        vals = sorted(_num(rng.uniform(0.5, 3.0)) for _ in range(5))
    elif key == "V0":
        vals = sorted(_num(params["E"] + rng.uniform(0.5, 4.0)) for _ in range(5))
    else:
        vals = sorted(_num(rng.uniform(0.5, params["V0"] - 0.5)) for _ in range(5))
    params.update(sweep_key=key, sweep_values=vals)
    return params


# Op shapes per cycle.  They are chosen so that the run's median and tail
# ranks each fall inside a block of one shape, away from the cost of the
# next shape; a rank between two shapes of similar cost jumps from seed to
# seed.

def _dense_cycle(rng: random.Random, index: int) -> list:
    shapes = ([("fig3", 2000, 1)] * 3 + [("fig3", 4000, 1)] * 4
              + [("backreaction", 4000, 2), ("backreaction", 8000, 1)])
    if index == 0:  # one long grid per run keeps the round short
        shapes.append(("fig3", 32000, 1))
    ops = []
    for scen, grid, n_modes in shapes:
        params = _rect_params(rng)
        params["modes"] = _modes(rng, n_modes, 0.1, 0.2)
        ops.append(make_op(scen, params, grid=grid))
    rng.shuffle(ops)
    return ops


def _sweep_cycle(rng: random.Random, index: int) -> list:
    shapes = [(4, 200), (4, 200), (4, 200), (8, 500), (8, 500), (16, 400)]
    ops = []
    for n_modes, grid in shapes:
        params = _rect_params(rng)
        params["modes"] = _modes(rng, n_modes, 0.02, 0.06)
        ops.append(make_op("backreaction", params, grid=grid))
    for _ in range(3):
        params = _rect_params(rng)
        params["modes"] = _modes(rng, 1, 0.1, 0.2)
        ops.append(make_op("mode-evolve", params))
    rng.shuffle(ops)
    return ops


def _smooth_cycle(rng: random.Random, index: int) -> list:
    shapes = [("fig2", 2000), ("wkb", 2000), ("fig2", 4000), ("wkb", 4000),
              ("fig2", 8000), ("wkb", 8000), ("fig2", 8000)]
    ops = [make_op(scen, _quadratic_barrier(rng), grid=grid) for scen, grid in shapes]
    rng.shuffle(ops)
    return ops


_CYCLES = {
    "cli-cold": _cli_cold_cycle,
    "backreaction-dense": _dense_cycle,
    "mode-sweep": _sweep_cycle,
    "smooth-barrier": _smooth_cycle,
}


def cycle(workload: str, seed: int, index: int) -> list:
    """The ``index``-th cycle of ops of a workload for a seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _CYCLES[workload](rng, index)
    for i, op in enumerate(ops):
        op["id"] = f"c{index}-{i}"
    return ops


def run_ops(workload: str, seed: int) -> list:
    """The distinct ops of one run."""
    return [op for i in range(CYCLES_PER_RUN[workload]) for op in cycle(workload, seed, i)]


def tail_pct(workload: str) -> int:
    """Highest nearest-rank percentile with at least ten of the run's
    distinct ops beyond it."""
    n = len(run_ops(workload, 0))
    return 100 * (n - 10) // n


def warmup_ops(workload: str) -> list:
    """One small op per scenario of the workload, run before timing starts so
    lazy set-up inside numpy and scipy is not charged to the first op."""
    ops = []
    for scen in sorted({op["scenario"] for op in cycle(workload, 0, 0)} - {"validate"}):
        grid = None if scen in ("rect", "sweep") else 201
        ops.append(dict(make_op(scen, {}, grid=grid), id=f"warm-{scen}"))
    return ops


def probes(workload: str, seed: int) -> list:
    """Contract probes: one input of each known defect class of the CLI.

    Required outcomes (README contract): non-finite values and an
    unwritable --out exit 2 and leave no file; a barrier thicker than the
    double range (beta*a > ~355) either exits 0 with output that passes
    the checks or exits 3 and leaves no file.
    """
    rng = random.Random(f"{workload}/{seed}/probes")
    # E = inf is left out: it is rejected as above-barrier before any defect
    key, value = rng.choice([("E", "nan"), ("V0", "nan"), ("V0", "inf"), ("a", "nan"),
                             ("a", "inf")])
    nonfinite = make_op(rng.choice(["rect", "fig1a"]),
                        dict(_rect_params(rng), **{key: float(value)}))
    params = _rect_params(rng)
    beta = (2.0 * (params["V0"] - params["E"])) ** 0.5
    thick_a = _num(rng.uniform(360.0, 900.0) / beta)
    if rng.random() < 0.5:
        thick = make_op("rect", dict(params, a=thick_a))
    else:
        thick = make_op("sweep", dict(params, sweep_key="a", sweep_values=[1.0, thick_a]))
    bad_out = make_op(rng.choice(["rect", "fig1a", "sweep"]), _rect_params(rng))
    for name, op in (("nonfinite", nonfinite), ("thick", thick), ("bad_out", bad_out)):
        op.update(id=f"probe-{name}", probe=name)
    return [nonfinite, thick, bad_out]
