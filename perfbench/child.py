"""One benchmark run in a fresh process: prepare, run, read, check.

``run.py`` starts this once per run with an empty artifact store in
``REPRO_CACHE_DIR`` and ``src`` of the checkout on ``PYTHONPATH``::

    python3 perfbench/child.py --workload alu_podem --seed 2002 \\
        --out report.json [--oracle] [--trace-out spans.jsonl]

The clock runs from inputs ready to result; reading the outputs and the
checks come after it.  The report JSON holds the clock readings, CPU and
peak memory, the deterministic summary, quality figures, input sizes,
the check problems and, with ``--trace-out``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def check(workload: str, result, out, oracle: bool):
    import checks
    import workloads

    if workload == "alu_podem":
        return checks.check_alu_podem(
            result["netlist"], result["options"], result["engine"],
            result["report"], workloads.PODEM_SAMPLE)
    if workload == "seu_campaign":
        executed = out["executed_results"]
        reference = (checks.interpreted_trial_results(
            result["runner"], [json.loads(key) for key in executed])
            if oracle else None)
        return checks.check_seu_campaign(
            out["summary"]["trials"], executed, reference,
            workloads.SEU_TRIALS, workloads.SEU_EXECUTED)
    return checks.check_factor_extract(out["summary"]["analyses"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--oracle", action="store_true",
                        help="re-run seu_campaign trials on the interpreted "
                             "backend and compare")
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    import repro

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")
    import workloads

    inputs = workloads.PREPARE[args.workload](args.seed)
    log = None
    if args.trace_out:
        import layers

        log = layers.SpanLog()
        layers.install(log)

    cpu_start = cpu_seconds()
    t_ready = time.perf_counter()
    if log is None:
        result = workloads.RUN[args.workload](inputs)
    else:
        with log.span("run") as root:
            result = workloads.RUN[args.workload](inputs)
    t_done = time.perf_counter()
    cpu = cpu_seconds() - cpu_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "t_ready": t_ready,
        "run_s": t_done - t_ready,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    if log is not None:
        from repro.obs import get_registry

        nodes = layers.merged_spans(log, root)
        report["layers"] = layers.layer_metrics(
            nodes, root["end"] - root["start"], get_registry().snapshot(),
            args.workload)
        log.write(args.trace_out)

    out = workloads.OUTPUTS[args.workload](inputs, result)
    t_check = time.perf_counter()
    problems = check(args.workload, result, out, args.oracle)
    report.update(
        summary=out["summary"],
        quality=out["quality"],
        sizes=out["sizes"],
        operations=out["operations"],
        problems=problems,
        check_s=time.perf_counter() - t_check,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
