"""Job execution: the function that runs inside worker processes.

:func:`execute_job` is the single entry point the server's worker pool
calls.  It takes a picklable spec dict, runs the requested pipeline
operation, and returns a picklable outcome dict — success or failure, a
JSON-able result body, the job's CPU/wall seconds, a metrics-registry
snapshot for the parent to fold back in (worker processes have their own
process-wide registry), and the worker's span tree so the server can
stitch one cross-process trace per job.

Telemetry crosses the fork boundary in both directions: the spec's
``trace`` field carries the server's submit-span context in (worker spans
parent under it), and a ``multiprocessing`` queue installed by
:func:`init_worker_progress` at pool start carries throttled progress
events and heartbeats back out while the job runs, then the job's
:data:`PROGRESS_END` marker.

Workers inherit ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``, so every
operation warm-starts through the persistent artifact store exactly like
a CLI run: the second time any design/MUT/options combination is
executed — by any worker — parsing, extraction, synthesis and even the
final ATPG report load from the store.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Optional

from repro.atpg.engine import AtpgOptions
from repro.core.extractor import ExtractionMode
from repro.core.factor import Factor
from repro.obs import QueueProgressReporter, get_registry, get_tracer, \
    parse_traceparent, set_reporter, span

from repro.serve.protocol import JobSpec

#: The worker→server progress pipe, installed once per worker process (or
#: pool thread) by the executor's initializer.  ``None`` outside a pool.
_PROGRESS_QUEUE: Optional[Any] = None

#: Event name of the end-of-stream marker a job puts on the progress
#: queue after its last event; it is never republished to clients.
PROGRESS_END = "progress_end"


def init_worker_progress(queue: Any) -> None:
    """Pool initializer: stash the server's progress queue."""
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = queue


def execute_job(spec_dict: Dict[str, Any],
                fresh_registry: bool = True,
                job_id: Optional[str] = None,
                progress_interval: float = 0.25,
                heartbeat_s: Optional[float] = 5.0) -> Dict[str, Any]:
    """Run one job to completion; never raises.

    ``fresh_registry`` resets the process-wide metrics registry first so
    the returned snapshot is a per-job delta (safe in dedicated worker
    processes; the in-thread worker mode passes False because it shares
    the server's registry).

    When a progress queue is installed, the job's last message on it is a
    :data:`PROGRESS_END` marker and the outcome's ``progress_end`` is
    True, so the server can hold the terminal event until every progress
    event ahead of the marker has been read.
    """
    if fresh_registry:
        get_registry().reset()
        get_tracer().reset()
    reporter = None
    if _PROGRESS_QUEUE is not None and job_id is not None:
        reporter = QueueProgressReporter(
            _PROGRESS_QUEUE, job_id, min_interval=progress_interval,
            heartbeat_s=heartbeat_s).start()
        set_reporter(reporter)
    root = None
    try:
        spec = JobSpec.from_dict(spec_dict).validate()
        context = parse_traceparent(spec.trace)
        with get_tracer().use_context(context):
            with span("serve.execute", op=spec.op) as sp:
                root = sp
                result = _OPERATIONS[spec.op](spec)
        outcome = {
            "ok": True,
            "result": result,
            "error": None,
            "wall_s": sp.wall_seconds,
            "cpu_s": sp.cpu_seconds,
            "metrics": get_registry().snapshot() if fresh_registry else {},
            "spans": [root.to_dict()],
        }
    except Exception as exc:
        outcome = {
            "ok": False,
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=20),
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "metrics": get_registry().snapshot() if fresh_registry else {},
            "spans": [root.to_dict()] if root is not None else [],
        }
    finally:
        if reporter is not None:
            set_reporter(None)
            reporter.stop()
            reporter.send({"event": PROGRESS_END})
    outcome["progress_end"] = reporter is not None
    return outcome


def _factor(spec: JobSpec) -> Factor:
    mode = (ExtractionMode.CONVENTIONAL if spec.mode == "conventional"
            else ExtractionMode.COMPOSE)
    return Factor.from_verilog(spec.source, top=spec.top, mode=mode)


def _op_analyze(spec: JobSpec) -> Dict[str, Any]:
    factor = _factor(spec)
    result = factor.analyze(spec.mut, path=spec.path,
                            use_piers=spec.use_piers)
    tr = result.transformed
    return {
        "op": "analyze",
        "mut": spec.mut,
        "mut_region": tr.mut_region,
        "extraction_seconds": tr.extraction_seconds,
        "synthesis_seconds": tr.synthesis_seconds,
        "tasks_run": result.extraction.tasks_run,
        "tasks_reused": result.extraction.tasks_reused,
        "total_gates": tr.total_gates,
        "mut_gates": tr.mut_gates,
        "surrounding_gates": tr.surrounding_gates,
        "num_pis": tr.num_pis,
        "num_pos": tr.num_pos,
        "kept_modules": list(result.extraction.kept_modules()),
    }


def _op_testability(spec: JobSpec) -> Dict[str, Any]:
    factor = _factor(spec)
    result = factor.analyze(spec.mut, path=spec.path,
                            use_piers=spec.use_piers)
    report = result.testability
    return {
        "op": "testability",
        "mut": spec.mut,
        "hard_coded_inputs": report.num_hard_coded,
        "total_input_ports": report.total_input_ports,
        "warnings": len(report.warnings),
        "summary": report.summary(),
    }


def _op_atpg(spec: JobSpec) -> Dict[str, Any]:
    factor = _factor(spec)
    result = factor.analyze(spec.mut, path=spec.path,
                            use_piers=spec.use_piers)
    opts = AtpgOptions(
        max_frames=spec.frames,
        backtrack_limit=spec.backtrack_limit,
        seed=spec.seed,
        fault_sim_backend=spec.backend,
        fault_model=spec.fault_model,
    )
    if spec.random_length is not None:
        opts.random_sequence_length = spec.random_length
    if spec.transient_sample is not None:
        opts.transient_sample = spec.transient_sample
    report = factor.generate_tests(result, opts)
    row = report.as_row()
    row.update({
        "op": "atpg",
        "mut": spec.mut,
        "untestable": report.untestable,
        "aborted": report.aborted,
        "coverage_percent": report.coverage_percent,
        "efficiency_percent": report.efficiency_percent,
        "transient_total": report.transient_total,
        "transient_detected": report.transient_detected,
        "transient_coverage_percent": report.transient_coverage_percent,
        "implications": report.implications,
        "backtracks": report.backtracks,
        "cpu_seconds": report.total_seconds,
    })
    return row


def _op_lint(spec: JobSpec) -> Dict[str, Any]:
    from repro.hierarchy.design import Design
    from repro.lint import run_lint
    from repro.verilog.parser import parse_source

    design = Design(parse_source(spec.source), top=spec.top)
    result = run_lint(design)
    findings = [diag.render() for diag in result.diagnostics[:200]]
    return {
        "op": "lint",
        "errors": len(result.errors),
        "warnings": len(result.warnings),
        "findings": findings,
        "truncated": len(result.diagnostics) > 200,
        "summary": result.summary(),
        "clean": not result.errors and not (spec.strict
                                            and result.warnings),
    }


def _op_explain(spec: JobSpec) -> Dict[str, Any]:
    from repro.hierarchy.design import Design
    from repro.lint.explain import explain_query
    from repro.verilog.parser import parse_source

    design = Design(parse_source(spec.source), top=spec.top)
    return explain_query(design, spec.target, seed=spec.seed)


_OPERATIONS = {
    "analyze": _op_analyze,
    "testability": _op_testability,
    "atpg": _op_atpg,
    "lint": _op_lint,
    "explain": _op_explain,
}
