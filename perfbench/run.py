"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload alu_podem [--seed 2002] \\
        [--seconds 30] [--trace 0|1]

Each timed run is a fresh process (``child.py``) with a fresh, empty
artifact store, started one after another until ``--seconds`` of runs are
measured.  A process per run keeps runs independent: the program keeps
per-netlist state for the life of a process (the arena simulator map
retains one simulator per netlist ever simulated), so runs sharing a
process would measure a warmer and larger program than a user's cold run.

Every run's outputs are checked (see ``checks.py``); the costly
interpreted re-execution of ``seu_campaign`` runs on the first run, and
every later run must reproduce the first run's counts exactly.  With
``--trace 1`` one more run is traced, and the per-layer metrics replace
the end-to-end ones in the result.

Prints one line per metric with its unit, then as the last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when
an output check fails, and 2, without a result, when a run cannot
complete or the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
#: Start no run after this many seconds, and kill one still going at
#: LIMIT_S: an invocation must end within 180 s.
START_BY_S = 120.0
LIMIT_S = 170.0
MIN_RUNS = 3

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402
from checks import disagreements  # noqa: E402
from layers import (ATTRIBUTED_MIN_PCT, PREMISE,  # noqa: E402
                    PREMISE_MIN_PCT)


class RunFailed(Exception):
    """A run ended without a report."""


def load_metric_units(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(run_dir: str):
    # Only this run's store and temp dir; no REPRO_* knob from the caller
    # may change what the program does.  A fixed hash seed makes repeat
    # runs iterate string-keyed sets and dicts in the same order.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0",
               REPRO_CACHE_DIR=os.path.join(run_dir, "cache"),
               TMPDIR=run_dir)
    return env


def one_run(args, index: int, deadline: float, oracle: bool = False,
            trace: bool = False):
    """Start one child run; returns its report with ``setup_s`` added."""
    run_dir = os.path.join(WORK, "work", f"{os.getpid()}-{index}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "cache"))
    out = os.path.join(run_dir, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    if oracle:
        cmd.append("--oracle")
    trace_path = os.path.join(WORK, "traces",
                              f"{args.workload}-seed{args.seed}.jsonl")
    if trace:
        cmd += ["--trace-out", trace_path]
    try:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(run_dir), capture_output=True,
                text=True, timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"run {index} did not finish in time") from None
        t_exit = time.perf_counter()
        if proc.returncode != 0 or not os.path.exists(out):
            raise RunFailed(f"run {index} exited {proc.returncode}:\n"
                            f"{proc.stderr[-3000:]}")
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # CLOCK_MONOTONIC is shared by every process of the machine, so the
    # child's perf_counter reading lines up with the spawn time here.
    report["setup_s"] = report["t_ready"] - t_spawn
    report["process_s"] = t_exit - t_spawn
    if trace:
        report["trace_path"] = os.path.relpath(trace_path, ROOT)
    return report


def median_line(name: str, unit: str, values):
    runs = " ".join(f"{value:.4g}" for value in values)
    values = sorted(values)
    n = len(values)
    # The highest percentile with at least ten runs beyond it.
    pct = int(100 * (n - 10) / n) if n > 10 else None
    tail = (f"p{pct} {values[int(pct / 100 * n)]:.6g}" if pct
            else "no percentile with 10 runs beyond it")
    return (f"{name:<14} median {statistics.median(values):.6g} {unit}  "
            f"n={n}  {tail}  runs: {runs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure runs for this long (at least "
                             f"{MIN_RUNS} runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + LIMIT_S
    runs = []
    measured = 0.0
    try:
        while len(runs) < MIN_RUNS or measured < args.seconds:
            if runs and time.perf_counter() - started > START_BY_S:
                break
            report = one_run(args, len(runs) + 1, deadline,
                             oracle=not runs)
            measured += report["process_s"] - report["check_s"]
            runs.append(report)
        traced = (one_run(args, len(runs) + 1, deadline, trace=True)
                  if args.trace else None)
    except RunFailed as exc:
        print(f"perfbench {args.workload}: {exc}", file=sys.stderr)
        return 2

    checked = runs + ([traced] if traced else [])
    problems = [p for run in checked for p in run["problems"]]
    problems += disagreements([run["summary"] for run in checked])
    failed = sum(run["operations"] for run in checked
                 if run["problems"] or run["summary"] != checked[0]["summary"])

    first = checked[0]
    print(f"perfbench {args.workload} seed={args.seed} runs={len(runs)} "
          f"traced={'yes' if traced else 'no'}")
    print(f"inputs: {json.dumps(first['sizes'], sort_keys=True)}")
    print(f"quality: {json.dumps(first['quality'], sort_keys=True)}")
    end_to_end = {}
    for name, unit in load_metric_units("end_to_end").items():
        values = [run[name] for run in runs]
        print(median_line(name, unit, values))
        end_to_end[name] = {"value": statistics.median(values), "unit": unit}
    metrics = end_to_end
    if traced:
        layer_values = dict(traced["layers"])
        layer_values.update(first["quality"])
        layer_values["trace.overhead_pct"] = 100.0 * (
            traced["run_s"] / end_to_end["run_s"]["value"] - 1.0)
        print(f"trace: {traced['trace_path']}; layer self times cover "
              f"{layer_values['trace.attributed_pct']:.1f}% of the run "
              f"(want >= {ATTRIBUTED_MIN_PCT:g}%); {PREMISE[args.workload]} "
              f"holds {layer_values['trace.premise_pct']:.1f}% "
              f"(premise >= {PREMISE_MIN_PCT:g}%)")
        metrics = {}
        for name, unit in load_metric_units("per_layer").items():
            value = layer_values.get(name, 0)
            print(f"  {name:<26} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if not problems else 'FAILED'} "
          f"over {len(checked)} runs")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["operations"] for run in checked),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
