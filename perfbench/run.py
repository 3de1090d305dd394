"""qtunnel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qtunnel checkout (the program is imported from
``./src``).  Workloads (see workloads.py):

  cli-cold            each op a fresh ``python -m qtunnel`` process
  backreaction-dense  in-process fig3/backreaction, 1-2 modes, 2k-32k points
  mode-sweep          in-process backreaction with 4-16 modes on 200-500
                      points, plus mode-evolve on its 801-point window
  smooth-barrier      in-process fig2/wkb on seeded quadratic barriers

Every op's outcome and output is checked (checks.py).  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.  Lines before it
give the tail percentile, op counts, host calibration, contract-probe
outcomes and every failed op with its exit code or exception class.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads
from worker import best_times, op_argv, op_path, run_rounds

WORK_DIR = ".perfbench_work"
SETUP_RUNS = 3  # timed fresh imports per run; setup_s is their median
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "rows_per_s": "1/s",
    "ops_per_s": "1/s", "ops_ok_ratio": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run or failed a self-check."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for a child, killing it after ``timeout``; (exit code, peak RSS KiB)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def measure_setup(root: Path, env: dict) -> list[float]:
    """Host-normalized seconds for fresh interpreters to finish
    ``import qtunnel.cli``, with the calibration kernel timed around each."""
    times, calib = [], [spans.calibrate()]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qtunnel.cli"], cwd=root, env=env,
                       check=True, timeout=OP_TIMEOUT_S)
        dt = time.perf_counter() - start
        calib.append(spans.calibrate())
        times.append(spans.normalized(dt, 0.5 * (calib[-2] + calib[-1])))
    return times


def import_breakdown(root: Path, env: dict) -> dict:
    """Median self time of numpy, scipy and qtunnel modules under -X importtime."""
    samples = {"numpy": [], "scipy": [], "qtunnel": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qtunnel.cli"],
                              cwd=root, env=env, check=True, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        self_us = dict.fromkeys(samples, 0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in self_us:
                self_us[package] += int(fields[0])
        for package, us in self_us.items():
            samples[package].append(us / 1e6)
    return {package: statistics.median(vals) for package, vals in samples.items()}


def run_cold(op: dict, root: Path, work: Path, env: dict, out_dir: Path) -> dict:
    """One op as a fresh ``python -m qtunnel`` process."""
    argv = [sys.executable, "-m", "qtunnel", *op_argv(op, work, out_dir)]
    with open(work / "cold.log", "w+", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        code, rss_kb = wait_child(proc, OP_TIMEOUT_S)
        dt = time.perf_counter() - start
        log.seek(0)
        text = log.read()
    exc = None
    if code not in (0, 2, 3) and "Traceback" in text:
        exc = text.strip().splitlines()[-1].split(":")[0]
    return {"id": op["id"], "code": code, "exc": exc, "dt": dt, "stdout": text,
            "out": str(op_path(op, work, out_dir)), "rss_kb": rss_kb}


def run_cold_loop(args, root: Path, work: Path, env: dict) -> dict:
    run_cold(workloads.warmup_ops(args.workload)[0], root, work, env, work / "warm")
    results, calib = run_rounds(
        lambda op, rnd: run_cold(op, root, work, env, work / "out" / f"r{rnd}"),
        workloads.run_ops(args.workload, args.seed), workloads.MIN_ROUNDS[args.workload],
        args.seconds)
    probes = [run_cold(op, root, work, env, work / "out" / "probe")
              for op in workloads.probes(args.workload, args.seed)]
    return {"ops": results, "probes": probes, "calib_ms": calib,
            "maxrss_kb": max(r["rss_kb"] for r in results), "trace": None}


def run_worker(args, root: Path, work: Path, env: dict) -> dict:
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "src": str(root / "src"), "work": str(work),
           "probes": workloads.probes(args.workload, args.seed)}
    job_path = work / "JOB.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                             str(job_path)], cwd=root, env=env)
    code, _ = wait_child(proc, WORKER_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    result = json.loads((work / "RESULT.json").read_text(encoding="utf-8"))
    if not Path(result["qtunnel_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"worker imported qtunnel from {result['qtunnel_file']}")
    return result


def check_outcomes(outcomes: list, ops: dict, samples: dict) -> tuple:
    """Check every outcome, and that reruns of an op give byte-identical
    output; returns (rows emitted by the first round, failures).  A rerun
    with the first round's exit code and bytes shares its verdict."""
    rows, failures, first = 0, [], {}
    for res in outcomes:
        op, path = ops[res["id"]], Path(res["out"])
        data = path.read_bytes() if path.exists() else None
        outcome = (res["code"], res["exc"], res["stdout"], data)
        if op["id"] not in first:
            first[op["id"]] = (outcome, checks.check_op(
                op, res["code"], res["exc"], res["stdout"], str(path)))
        seen, reason = first[op["id"]]
        if outcome != seen:
            reason = "rerun outcome differs from the first round"
        if reason is not None:
            failures.append((op, res, reason))
        elif data is not None and res.get("round", 0) == 0:
            rows += data.count(b"\n") - 2
            samples.setdefault(op["scenario"], (op, data.decode("utf-8")))
        if path.exists():
            path.unlink()
    return rows, failures


def self_check_inputs(workload: str, seed: int) -> None:
    """The same seed must generate identical inputs, and another seed others.
    Inputs are compared as JSON text, where NaN equals NaN."""
    def inputs(s: int) -> str:
        return json.dumps([workloads.cycle(workload, s, i) for i in range(3)]
                          + [workloads.probes(workload, s)])

    if inputs(seed) != inputs(seed):
        raise BenchError("the same seed generated different inputs")
    if inputs(seed) == inputs(seed + 1):
        raise BenchError("different seeds generated the same inputs")


def self_check_outputs(samples: dict) -> None:
    """The output checks must reject deliberately corrupted CSVs."""
    for op, text in samples.values():
        for name, bad in checks.corruptions(op, text):
            if checks.check_csv(op, bad) is None:
                raise BenchError(f"checks accepted a {name} in a {op['scenario']} CSV")


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(args, setup: list, result: dict, rows: int, failed: int) -> dict:
    """Op times are each op's best over its rounds."""
    dts = list(best_times(result["ops"]).values())
    busy = sum(dts)
    attempted = len(result["ops"])
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(dts) * 1000.0,
        "op_tail_ms": percentile(dts, workloads.tail_pct(args.workload)) * 1000.0,
        "rows_per_s": rows / busy,
        "ops_per_s": len(dts) / busy,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def per_layer(breakdown: dict, result: dict, violations: dict) -> dict:
    trace = result["trace"]
    layers, counts = trace["layers"], trace["counts"]
    m = {
        "setup.import_numpy_s": (breakdown["numpy"], "s"),
        "setup.import_scipy_s": (breakdown["scipy"], "s"),
        "setup.import_qtunnel_s": (breakdown["qtunnel"], "s"),
        "specfun.hyp2f1.calls": (layers["specfun.hyp2f1"][0], "count"),
        "specfun.hyp2f1.self_s": (layers["specfun.hyp2f1"][1], "s"),
        "specfun.hyp2f1.terms": (counts["specfun.hyp2f1.terms"], "count"),
        "specfun.hyp2f1.degraded": (counts["specfun.hyp2f1.degraded"], "count"),
        "specfun.log_gamma.calls": (layers["specfun.log_gamma"][0], "count"),
        "specfun.log_gamma.self_s": (layers["specfun.log_gamma"][1], "s"),
        "modes.xi.calls": (layers["modes.xi"][0], "count"),
        "modes.xi.self_s": (layers["modes.xi"][1], "s"),
        "modes.other.self_s": (layers["modes.other"][1], "s"),
        "modes.evolve.calls": (layers["modes.evolve"][0], "count"),
        "modes.evolve.self_s": (layers["modes.evolve"][1], "s"),
        "backreaction.q_factors.self_s": (layers["backreaction.q_factors"][1], "s"),
        "backreaction.effective_potential.self_s":
            (layers["backreaction.effective_potential"][1], "s"),
        "backreaction.other.self_s": (layers["backreaction.other"][1], "s"),
        "backreaction.trimmed": (counts["backreaction.trimmed"], "count"),
        "wkb.turning_points.self_s": (layers["wkb.turning_points"][1], "s"),
        "wkb.total_potential.self_s": (layers["wkb.total_potential"][1], "s"),
        "wkb.other.self_s": (layers["wkb.other"][1], "s"),
        "wkb.potential_evals": (counts["wkb.potential_evals"], "count"),
        "rect.calls": (layers["rect"][0], "count"),
        "rect.self_s": (layers["rect"][1], "s"),
        "config.calls": (layers["config"][0], "count"),
        "config.self_s": (layers["config"][1], "s"),
        "cli.self_s": (layers["cli"][1], "s"),
        "cli.csv_bytes": (trace["csv_bytes"], "bytes"),
        "trace.ops": (trace["ops"], "count"),
        "trace.overhead_ratio": (trace["overhead_ratio"], "ratio"),
        "host.calib_ms": (statistics.median(result["calib_ms"]), "ms"),
    }
    for name, violated in violations.items():
        m[f"cli.violations.{name}"] = (int(violated), "count")
    for label, point in trace["scaling"].items():
        m[f"scaling.{label}.ms"] = (point["ms"], "ms")
        m[f"scaling.{label}.hyp2f1_terms"] = (point["terms"], "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtunnel" / "cli.py").is_file():
        raise BenchError("no ./src/qtunnel/cli.py: run from the root of a qtunnel checkout")
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "warm", "trace", "scale", "cfg"):
        (work / sub).mkdir(parents=True)
    self_check_inputs(args.workload, args.seed)
    env = child_env(root / "src")

    breakdown = import_breakdown(root, env) if args.trace else None
    if args.workload == "cli-cold" and not args.trace:
        result = run_cold_loop(args, root, work, env)
    else:
        result = run_worker(args, root, work, env)
    # after the workload, so bytecode is compiled and the files are cached
    setup = None if args.trace else measure_setup(root, env)

    ops = {op["id"]: op for op in workloads.run_ops(args.workload, args.seed)
           + workloads.probes(args.workload, args.seed)}
    samples: dict = {}
    rows, failures = check_outcomes(result["ops"], ops, samples)
    _, probe_failures = check_outcomes(result["probes"], ops, {})
    self_check_outputs(samples)
    violated = {op["probe"]: reason for op, _, reason in probe_failures}
    violations = {op["probe"]: op["probe"] in violated for op in ops.values() if op["probe"]}

    attempted, failed = len(result["ops"]), len(failures)
    rounds = 1 + max(r["round"] for r in result["ops"])
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(workloads.run_ops(args.workload, args.seed))} ops x {rounds} rounds, "
          f"{failed} failed, tail=p{workloads.tail_pct(args.workload)}; raw median op "
          f"{statistics.median(r['dt'] for r in result['ops']) * 1000.0:.1f} ms wall, "
          f"calibration kernel median {statistics.median(result['calib_ms']):.2f} ms "
          f"(reference {spans.REFERENCE_MS} ms)")
    for op, res, reason in failures:
        print(f"  FAILED {op['id']} {' '.join(op['argv'])}: {reason}")
    for name, is_violated in violations.items():
        print(f"  contract probe {name}: "
              + (f"VIOLATED ({violated[name]})" if is_violated else "ok"))
    if args.trace:
        if result["trace"]["missing"]:
            print(f"  missing layers: {', '.join(result['trace']['missing'])}")
        metrics = per_layer(breakdown, result, violations)
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(args, setup, result, rows, failed).items()}
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
