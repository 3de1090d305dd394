"""In-process op runner: one closed-loop client calling qtunnel.cli.main.

Run as ``python3 perfbench/worker.py JOB.json``.  The job names the
workload, seed, run length, checkout ``src`` directory and work directory.
The worker imports qtunnel once, runs warm-up ops, then rounds of the run's
timed ops (see ``run_rounds``).  With tracing on it runs the ops once more
under the tracer and takes the scaling read-out.  Results go to RESULT.json next to the job; outputs stay in the
work directory for the parent to check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

# fig3 scaling read-out: grid size at one mode, and mode count at 2,000 points
SCALING_GRIDS = (("2k", 2000), ("8k", 8000), ("32k", 32000))
SCALING_MODES = (1, 4, 16)


def run_op(cli, op: dict, work: Path, out_dir: Path) -> dict:
    """Run one op in-process; returns its outcome, wall time and output path."""
    argv = op_argv(op, work, out_dir)
    buf = io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception as err:  # an uncaught exception is a failed op, recorded by class
            exc = type(err).__name__
        dt = time.perf_counter() - start
    return {"id": op["id"], "code": code, "exc": exc, "dt": dt,
            "stdout": buf.getvalue() if op["scenario"] == "validate" else "",
            "out": str(op_path(op, work, out_dir))}


def op_argv(op: dict, work: Path, out_dir: Path) -> list:
    """CLI arguments of an op, writing its config file if it has one."""
    argv = list(op["argv"])
    if op["config"] is not None:
        cfg = work / "cfg" / f"{op['id']}.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in op["config"].items()),
                       encoding="utf-8")
        argv += ["--config", str(cfg)]
    if op["scenario"] != "validate":
        out_dir.mkdir(parents=True, exist_ok=True)
        argv += ["--out", str(op_path(op, work, out_dir))]
    return argv


def op_path(op: dict, work: Path, out_dir: Path) -> Path:
    if op["probe"] == "bad_out":
        return work / "no-such-dir" / f"{op['id']}.csv"
    return out_dir / f"{op['id']}.csv"


def run_pass(run_one, ops: list, rnd: int, calib: list) -> list:
    """Run every op once.  ``run_one(op, round)`` returns the op's outcome.
    The calibration kernel is timed after each op (``calib`` must already
    hold one time from before the first), and each outcome records the mean
    of the kernel times just before and just after it."""
    results = []
    for op in ops:
        res = dict(run_one(op, rnd), round=rnd)
        calib.append(spans.calibrate())
        res["calib_ms"] = 0.5 * (calib[-2] + calib[-1])
        results.append(res)
    return results


def run_rounds(run_one, ops: list, min_rounds: int, seconds: float) -> tuple[list, list]:
    """Rounds of ``run_pass``: at least ``min_rounds``, and until ``seconds``
    have passed.  Returns the outcomes and the kernel times."""
    results, calib = [], [spans.calibrate()]
    start = time.perf_counter()
    while (len(results) < min_rounds * len(ops)
           or time.perf_counter() - start < seconds):
        results += run_pass(run_one, ops, len(results) // len(ops), calib)
    return results, calib


def best_times(results: list) -> dict:
    """Each op's best host-normalized time over its rounds, in seconds."""
    best: dict = {}
    for res in results:
        t = spans.normalized(res["dt"], res["calib_ms"])
        best[res["id"]] = min(t, best.get(res["id"], math.inf))
    return best


def run_traced(cli, work: Path, ops: list, results: list) -> dict:
    """Run the ops once more under the tracer, then take the scaling read-out."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(lambda op, rnd: run_op(cli, op, work, work / "trace"), ops, 0,
                          [spans.calibrate()])
    finally:
        tracer.uninstall()
    csv_bytes = sum(f.stat().st_size for f in (work / "trace").glob("*.csv"))
    out = {"layers": tracer.layer_totals(), "counts": tracer.counts,
           "missing": tracer.missing, "ops": len(traced), "csv_bytes": csv_bytes,
           "overhead_ratio": sum(best_times(traced).values())
           / sum(best_times(results).values())}
    scaling = {}
    cases = [(f"fig3_{label}", {"grid_points": grid}) for label, grid in SCALING_GRIDS]
    cases += [(f"modes_{n}", {"grid_points": 2000,
                              "modes": [(1.0, 1.0 + 0.05 * i, 0.15) for i in range(n)]})
              for n in SCALING_MODES]
    for label, params in cases:
        op = dict(workloads.make_op("fig3", params), id=f"scale-{label}")
        timed = run_pass(lambda op, rnd: run_op(cli, op, work, work / "scale"), [op], 0,
                         [spans.calibrate()])[0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            counted = run_op(cli, op, work, work / "scale")
        finally:
            tracer.uninstall()
        if timed["code"] != 0 or counted["code"] != 0:
            raise RuntimeError(f"scaling op {label} failed: {timed} {counted}")
        scaling[label] = {"ms": spans.normalized(timed["dt"], timed["calib_ms"]) * 1000.0,
                          "terms": tracer.counts["specfun.hyp2f1.terms"]}
    out["scaling"] = scaling
    return out


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    work = Path(job["work"])
    sys.path.insert(0, job["src"])
    import qtunnel.cli as cli

    name, seed = job["workload"], job["seed"]
    for op in workloads.warmup_ops(name):
        run_op(cli, op, work, work / "warm")
    ops = workloads.run_ops(name, seed)
    results, calib = run_rounds(
        lambda op, rnd: run_op(cli, op, work, work / "out" / f"r{rnd}"), ops,
        workloads.MIN_ROUNDS[name], job["seconds"])
    probes = [run_op(cli, op, work, work / "out" / "probe") for op in job["probes"]]
    trace = run_traced(cli, work, ops, results) if job["trace"] else None
    result = {"ops": results, "probes": probes, "calib_ms": calib,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": trace, "qtunnel_file": cli.__file__}
    (work / "RESULT.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
