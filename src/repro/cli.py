"""Command-line interface: the FACTOR tool.

Usage (after ``pip install -e .``)::

    python -m repro analyze DESIGN.v --top arm --mut arm_alu \
        --path u_core.u_dp.u_alu. --out constraints/
    python -m repro testability DESIGN.v --top arm --mut arm_alu
    python -m repro atpg DESIGN.v --top arm --mut arm_alu --frames 4
    python -m repro lint DESIGN.v --top arm --format sarif --out lint.sarif
    python -m repro profile DESIGN.v --top arm --mut arm_alu
    python -m repro stats DESIGN.v --top arm
    python -m repro piers DESIGN.v --top arm

Subcommands:

- ``analyze``      extract constraints, build the transformed module and
                   write the constraint netlists out as Verilog,
- ``testability``  Section 4.2 report: hard-coded inputs, empty chains,
- ``atpg``         generate tests for the MUT inside the transformed module,
- ``lint``         rule-based static analysis (text/JSON/SARIF output);
                   exit 0 clean, 1 warnings with ``--strict``, 2 errors,
- ``explain``      root-cause connectivity query for one net or port:
                   ordered hop trace to the first blocking statement plus
                   a simulator-verified witness (see docs/root-cause.md),
- ``profile``      full pipeline run with a per-phase time/metric breakdown,
- ``stats``        netlist statistics for the whole design (or one module),
- ``piers``        list PI/PO-accessible registers,
- ``bench``        differential simulation-backend benchmarks (interpreted
                   vs arena fault simulation plus an ATPG equivalence
                   check); writes ``BENCH_*.json``, exits 1 on
                   mismatch,
- ``serve``        resident ATPG job server (queueing, admission control,
                   request coalescing, graceful drain; see docs/serving.md),
- ``submit``       submit a job to a running server and (by default) wait;
                   ``--watch`` streams live progress instead of polling,
- ``jobs``         list the jobs a running server knows about;
                   ``--follow JOB_ID`` tails one job's event stream,
- ``trace``        inspect stitched per-job trace files: ``show`` renders
                   a waterfall + top-spans view, ``slow`` lists jobs that
                   exceeded the server's slow threshold.

``analyze`` and ``atpg`` accept ``--lint`` to run the linter as a
pre-flight gate: error-severity findings abort before extraction starts.
``atpg`` accepts ``--mut`` repeatedly; ``--jobs`` fans the per-MUT runs
out across worker processes, and each run is serial.

Every subcommand also takes the observability flags ``--log-level``,
``--trace-out FILE`` (span tree as JSON; ``.jsonl`` / ``.chrome.json``
variants by extension) and ``--metrics-out FILE`` (metrics registry
snapshot as JSON, or Prometheus text exposition with a ``.prom`` suffix).

``SIGINT`` exits 130; ``SIGTERM`` exits 143 — both flush partial
``--trace-out`` / ``--metrics-out`` payloads first.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional

from repro import __version__
from repro.atpg.engine import AtpgOptions
from repro.core.extractor import ExtractionMode
from repro.core.factor import Factor
from repro.core.report import format_table
from repro.jobs import (
    SIGTERM_EXIT_CODE,
    Terminated,
    install_sigterm_handler,
    resolve_jobs,
)
from repro.obs import (
    Span,
    atomic_write_text,
    configure_logging,
    get_logger,
    get_registry,
    get_tracer,
)
from repro.synth.stats import netlist_stats

_log = get_logger("cli")

# Pipeline phases reported by ``repro profile``, in execution order.
_PROFILE_PHASES = ["parse", "extract", "compose", "synth",
                   "testability", "piers", "atpg"]


def _positive_int(text: str) -> int:
    """argparse type for sizes the job protocol requires to be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FACTOR: functional constraint extraction for "
                    "hierarchical test generation (DATE 2002 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p):
        p.add_argument("--log-level", default="warning",
                       choices=["debug", "info", "warning", "error"],
                       help="structured log verbosity (default: warning)")
        p.add_argument("--trace-out", metavar="FILE",
                       help="write the span trace as JSON (.jsonl and "
                            ".chrome.json select other formats)")
        p.add_argument("--metrics-out", metavar="FILE",
                       help="write the metrics registry snapshot as JSON")

    def add_common(p, needs_mut=True, files_nargs="+",
                   mut_repeatable=False):
        p.add_argument("files", nargs=files_nargs,
                       help="Verilog source files")
        p.add_argument("--top", help="top module (inferred when unique)")
        p.add_argument("--define", "-D", action="append", default=[],
                       metavar="NAME[=VALUE]",
                       help="preprocessor macro (repeatable)")
        p.add_argument("--include", "-I", action="append", default=[],
                       metavar="DIR", help="`include search directory "
                                           "(repeatable)")
        add_obs(p)
        if needs_mut:
            if mut_repeatable:
                p.add_argument("--mut", required=True, action="append",
                               help="module under test (repeatable; "
                                    "multiple MUTs fan out over --jobs)")
            else:
                p.add_argument("--mut", required=True,
                               help="module under test (module name)")
            p.add_argument("--path",
                           help="instance path, e.g. u_core.u_dp.u_alu. "
                                "(inferred when the module has one instance)")
            p.add_argument(
                "--mode", choices=["compose", "conventional"],
                default="compose",
                help="extraction mode (default: compose)",
            )

    def add_atpg_options(p):
        p.add_argument("--frames", type=int, default=4,
                       help="maximum time frames (default 4)")
        p.add_argument("--backtrack-limit", type=int, default=300)
        p.add_argument("--no-piers", action="store_true",
                       help="disable PIER pseudo PI/PO")
        p.add_argument("--seed", type=int, default=2002)
        p.add_argument("--fault-model",
                       choices=["stuck", "transient", "both"],
                       default="stuck",
                       help="fault model: stuck-at (default), transient "
                            "SEU bit flips (random-phase only, graded by "
                            "fault simulation), or both")
        p.add_argument("--random-length", type=_positive_int, metavar="N",
                       help="random-phase sequence length (default: the "
                            "engine's built-in)")
        p.add_argument("--transient-sample", type=_positive_int,
                       metavar="N",
                       help="SEU faults sampled from the site x value x "
                            "cycle universe (default 256)")

    def add_lint_gate(p):
        p.add_argument("--lint", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="run the linter first; error findings abort "
                            "before extraction (default: --no-lint)")

    p_analyze = sub.add_parser("analyze", help="extract constraints and "
                                               "build the transformed module")
    add_common(p_analyze)
    add_lint_gate(p_analyze)
    p_analyze.add_argument("--out", help="directory for constraint netlists")

    p_test = sub.add_parser("testability", help="Section 4.2 testability "
                                                "report")
    add_common(p_test)

    p_atpg = sub.add_parser("atpg", help="generate tests for the MUT(s)")
    add_common(p_atpg, mut_repeatable=True)
    add_lint_gate(p_atpg)
    add_atpg_options(p_atpg)
    p_atpg.add_argument("--jobs", type=int,
                        help="worker processes for multi-MUT runs, one "
                             "whole report each; a single MUT always "
                             "runs serially (default: REPRO_JOBS, else "
                             "all cores; <= 0 means all cores)")

    p_lint = sub.add_parser(
        "lint",
        help="rule-based static analysis (AST, du/ud chains, netlist)",
    )
    add_common(p_lint, needs_mut=False, files_nargs="*")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", help="output format (default: text)")
    p_lint.add_argument("--out", dest="lint_out", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit 1 when there are warnings (errors always "
                             "exit 2)")
    p_lint.add_argument("--disable", action="append", default=[],
                        metavar="RULE", help="disable a rule id (repeatable)")
    p_lint.add_argument("--enable", action="append", default=[],
                        metavar="RULE",
                        help="run only these rule ids (repeatable)")
    p_lint.add_argument("--severity", action="append", default=[],
                        metavar="RULE=LEVEL",
                        help="override a rule's severity, e.g. W003=error "
                             "(repeatable)")
    p_lint.add_argument("--waive", action="append", default=[],
                        metavar="RULE[:MODULE[:SIGNAL]][@YYYY-MM-DD]",
                        help="waive matching findings (repeatable; an "
                             "@date suffix expires the waiver — expired "
                             "waivers re-surface as warnings)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")

    p_explain = sub.add_parser(
        "explain",
        help="root-cause connectivity trace for one net or port "
             "(why can't it be justified / propagated?)",
    )
    add_common(p_explain, needs_mut=False)
    p_explain.add_argument("target", metavar="TARGET",
                           help="signal to explain, as SIGNAL (in the top "
                                "module) or MODULE.SIGNAL")
    p_explain.add_argument("--direction",
                           choices=["auto", "justification", "propagation"],
                           default="auto",
                           help="which chain walk to run (default: auto — "
                                "by port direction, else both)")
    p_explain.add_argument("--witness",
                           action=argparse.BooleanOptionalAction,
                           default=True,
                           help="attempt a witness vector pair / ATPG "
                                "redundancy proof for blocked traces "
                                "(default: --witness)")
    p_explain.add_argument("--seed", type=int, default=2002,
                           help="seed for witness base vectors "
                                "(default 2002)")
    p_explain.add_argument("--json", action="store_true", dest="as_json",
                           help="print the trace (and witness) as JSON")

    p_profile = sub.add_parser(
        "profile",
        help="run the full pipeline and print a per-phase "
             "time/metric breakdown",
    )
    add_common(p_profile)
    add_atpg_options(p_profile)

    p_stats = sub.add_parser("stats", help="netlist statistics")
    add_common(p_stats, needs_mut=False)
    p_stats.add_argument("--module", help="synthesize one module stand-alone")

    p_piers = sub.add_parser("piers", help="list PI/PO-accessible registers")
    add_common(p_piers, needs_mut=False)

    p_cache = sub.add_parser(
        "cache",
        help="artifact-store maintenance (stats / clear / gc)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="per-stage entry counts and sizes")
    add_obs(p_cache_stats)
    p_cache_clear = cache_sub.add_parser(
        "clear", help="remove every cached artifact")
    add_obs(p_cache_clear)
    p_cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size cap")
    p_cache_gc.add_argument(
        "--max-size", required=True, metavar="SIZE",
        help="target store size, e.g. 512M, 2G, or plain bytes")
    add_obs(p_cache_gc)

    p_bench = sub.add_parser(
        "bench",
        help="differential simulation-backend benchmarks "
             "(writes BENCH_*.json)",
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-sized workload (arm_alu only, few vectors)")
    p_bench.add_argument("--jobs", type=int,
                         help="worker pool size of the serve suite's "
                              "server (default: REPRO_JOBS or all cores)")
    p_bench.add_argument("--seed", type=int, default=2002)
    p_bench.add_argument("--out", default="benchmarks/results",
                         help="output directory for BENCH_*.json "
                              "(default: benchmarks/results)")
    p_bench.add_argument("--suite", action="append", default=[],
                         choices=["fault_sim", "atpg", "serve", "all"],
                         help="suites to run (repeatable; default: "
                              "fault_sim, atpg)")
    add_obs(p_bench)

    p_serve = sub.add_parser(
        "serve",
        help="resident ATPG job server (see docs/serving.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8371,
                         help="listen port (0 picks an ephemeral port; "
                              "default 8371)")
    p_serve.add_argument("--jobs", type=int,
                         help="worker pool size (default: REPRO_JOBS or "
                              "all cores; <= 0 means all cores)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission bound: queued jobs beyond this "
                              "get 429 + Retry-After (default 64)")
    p_serve.add_argument("--journal", metavar="FILE",
                         help="JSONL job journal; queued work survives "
                              "restarts when set")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds running jobs get to finish on "
                              "SIGTERM/SIGINT (default 30)")
    p_serve.add_argument("--job-timeout", type=float,
                         help="per-job wall-clock budget once running "
                              "(default: unlimited)")
    p_serve.add_argument("--worker-mode", choices=["process", "thread"],
                         default="process",
                         help="worker pool flavor (default: process; "
                              "thread is for tests/smoke runs)")
    add_obs(p_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running repro serve",
    )
    p_submit.add_argument("files", nargs="*",
                          help="Verilog source files (preprocessed "
                               "locally, uploaded as one unit)")
    p_submit.add_argument("--design", choices=["arm2", "filterchip"],
                          help="submit a bundled design instead of files")
    p_submit.add_argument("--op", default="atpg",
                          choices=["analyze", "testability", "atpg",
                                   "lint", "explain"],
                          help="pipeline operation (default: atpg)")
    p_submit.add_argument("--target", metavar="SIGNAL",
                          help="explain jobs: the net/port to explain "
                               "(SIGNAL or MODULE.SIGNAL)")
    p_submit.add_argument("--top", help="top module")
    p_submit.add_argument("--mut", help="module under test")
    p_submit.add_argument("--path", help="MUT instance path")
    p_submit.add_argument("--mode", choices=["compose", "conventional"],
                          default="compose")
    p_submit.add_argument("--define", "-D", action="append", default=[],
                          metavar="NAME[=VALUE]")
    p_submit.add_argument("--include", "-I", action="append", default=[],
                          metavar="DIR")
    p_submit.add_argument("--frames", type=int, default=4)
    p_submit.add_argument("--backtrack-limit", type=int, default=300)
    p_submit.add_argument("--seed", type=int, default=2002)
    p_submit.add_argument("--fault-model",
                          choices=["stuck", "transient", "both"],
                          default="stuck",
                          help="atpg jobs: fault model (default: stuck)")
    p_submit.add_argument("--random-length", type=_positive_int,
                          metavar="N",
                          help="atpg jobs: random-phase sequence length")
    p_submit.add_argument("--transient-sample", type=_positive_int,
                          metavar="N",
                          help="atpg jobs: SEU fault sample size")
    p_submit.add_argument("--no-piers", action="store_true")
    p_submit.add_argument("--strict", action="store_true",
                          help="lint jobs: warnings fail the job")
    p_submit.add_argument("--deadline", type=float, metavar="SECONDS",
                          help="fail the job if still queued after this "
                               "many seconds")
    p_submit.add_argument("--server", metavar="URL",
                          help="server base URL (default: REPRO_SERVER "
                               "or http://127.0.0.1:8371)")
    p_submit.add_argument("--wait", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="poll until the job finishes "
                               "(default: --wait)")
    p_submit.add_argument("--watch", action="store_true",
                          help="follow the job's live event stream and "
                               "render a progress line (implies --wait)")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for completion "
                               "(default 600)")
    p_submit.add_argument("--json", action="store_true", dest="as_json",
                          help="print the full job as JSON")
    add_obs(p_submit)

    p_jobs = sub.add_parser("jobs", help="list jobs on a running server")
    p_jobs.add_argument("--server", metavar="URL",
                        help="server base URL (default: REPRO_SERVER "
                             "or http://127.0.0.1:8371)")
    p_jobs.add_argument("--status",
                        choices=["queued", "running", "done", "failed"],
                        help="only jobs in this state")
    p_jobs.add_argument("--follow", metavar="JOB_ID",
                        help="tail one job's event stream as NDJSON "
                             "until it finishes")
    p_jobs.add_argument("--since", type=int, default=0,
                        help="with --follow: replay events after this "
                             "sequence number (default 0 = all)")
    p_jobs.add_argument("--json", action="store_true", dest="as_json")
    add_obs(p_jobs)

    p_trace = sub.add_parser(
        "trace",
        help="inspect stitched per-job trace files (see "
             "docs/observability.md)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_show = trace_sub.add_parser(
        "show", help="waterfall + top-spans view of one stitched trace")
    p_trace_show.add_argument("trace",
                              help="trace file path, or a job id looked "
                                   "up under --trace-dir")
    p_trace_show.add_argument("--trace-dir", metavar="DIR",
                              help="stitched-trace directory (default: "
                                   "<cache>/traces)")
    p_trace_show.add_argument("--top", type=int, default=10,
                              dest="top_spans",
                              help="rows in the top-spans table "
                                   "(default 10)")
    p_trace_show.add_argument("--json", action="store_true",
                              dest="as_json",
                              help="print the parsed spans as JSON")
    add_obs(p_trace_show)
    p_trace_slow = trace_sub.add_parser(
        "slow", help="jobs that exceeded the server's slow threshold")
    p_trace_slow.add_argument("--trace-dir", metavar="DIR",
                              help="stitched-trace directory (default: "
                                   "<cache>/traces)")
    p_trace_slow.add_argument("--limit", type=int, default=20,
                              help="most recent entries shown "
                                   "(default 20)")
    p_trace_slow.add_argument("--json", action="store_true",
                              dest="as_json")
    add_obs(p_trace_slow)

    p_campaign = sub.add_parser(
        "campaign",
        help="fault-injection campaigns: factorial / evolutionary "
             "design-space exploration (see docs/campaign.md)",
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)
    p_camp_run = campaign_sub.add_parser(
        "run", help="execute a campaign spec end to end")
    p_camp_run.add_argument("spec", metavar="SPEC",
                            help="campaign spec file (.toml or .json)")
    p_camp_run.add_argument("--server", metavar="URL",
                            help="submit trials to a running repro serve "
                                 "(default: the spec's server, else local "
                                 "execution)")
    p_camp_run.add_argument("--local", action="store_true",
                            help="force local execution even when the "
                                 "spec names a server")
    p_camp_run.add_argument("--jobs", type=int, default=1,
                            help="local mode: trial worker processes "
                                 "(default 1 = in-process)")
    p_camp_run.add_argument("--timeout", type=float, default=600.0,
                            help="per-trial wall-clock budget in seconds "
                                 "(default 600)")
    p_camp_run.add_argument("--json", action="store_true", dest="as_json",
                            help="print the run summary as JSON")
    add_obs(p_camp_run)
    p_camp_status = campaign_sub.add_parser(
        "status", help="trial counts for a campaign's trial DB")
    p_camp_status.add_argument("name", metavar="NAME",
                               help="campaign name (or a spec file, whose "
                                    "name is used)")
    p_camp_status.add_argument("--json", action="store_true",
                               dest="as_json")
    add_obs(p_camp_status)
    p_camp_report = campaign_sub.add_parser(
        "report", help="fitted coverage-vs-cost factor-effect report")
    p_camp_report.add_argument("name", metavar="NAME",
                               help="campaign spec file (.toml/.json) — "
                                    "needed for the factor levels; a bare "
                                    "name works if the spec was copied "
                                    "into the campaign directory")
    p_camp_report.add_argument("--json", action="store_true",
                               dest="as_json")
    add_obs(p_camp_report)

    return parser


def _factor_for(args) -> Factor:
    mode = ExtractionMode.COMPOSE
    if getattr(args, "mode", "compose") == "conventional":
        mode = ExtractionMode.CONVENTIONAL
    defines = {}
    for item in getattr(args, "define", []):
        name, _, value = item.partition("=")
        defines[name] = value
    return Factor.from_files(args.files, top=args.top, mode=mode,
                             defines=defines or None,
                             include_dirs=getattr(args, "include", []))


def _atpg_option_fields(args) -> Dict[str, object]:
    """``AtpgOptions`` keyword arguments from the shared ATPG flags."""
    fields = dict(
        max_frames=args.frames,
        backtrack_limit=args.backtrack_limit,
        seed=args.seed,
        fault_model=getattr(args, "fault_model", "stuck"),
    )
    if getattr(args, "random_length", None) is not None:
        fields["random_sequence_length"] = args.random_length
    if getattr(args, "transient_sample", None) is not None:
        fields["transient_sample"] = args.transient_sample
    return fields


def _atpg_options(args) -> AtpgOptions:
    return AtpgOptions(**_atpg_option_fields(args))


def _lint_config_from_args(args) -> "LintConfig":
    from repro.lint import LintConfig, Waiver

    overrides = {}
    for item in getattr(args, "severity", []):
        rule_id, sep, level = item.partition("=")
        if not sep:
            raise ValueError(
                f"bad --severity {item!r}; expected RULE=LEVEL")
        overrides[rule_id] = level
    waivers = []
    for item in getattr(args, "waive", []):
        spec, _, expires = item.partition("@")
        parts = spec.split(":")
        waivers.append(Waiver(
            rule_id=parts[0],
            module=parts[1] if len(parts) > 1 and parts[1] else None,
            signal=parts[2] if len(parts) > 2 and parts[2] else None,
            reason="--waive",
            expires=expires or None,
        ))
    return LintConfig(
        disabled=set(getattr(args, "disable", [])),
        enabled=set(getattr(args, "enable", [])),
        severity_overrides=overrides,
        waivers=waivers,
    )


def _load_lint_design(args):
    """Parse each file separately so diagnostics carry real file paths."""
    from repro.hierarchy.design import Design
    from repro.lint import LintError
    from repro.verilog import ast as vast
    from repro.verilog.lexer import LexError
    from repro.verilog.parser import ParseError, parse_source
    from repro.verilog.preprocess import Preprocessor, PreprocessError

    defines = {}
    for item in getattr(args, "define", []):
        name, _, value = item.partition("=")
        defines[name] = value
    pp = Preprocessor(defines=defines or None,
                      include_dirs=getattr(args, "include", []))
    source = vast.Source()
    files: Dict[str, str] = {}
    for path in args.files:
        try:
            chunk = pp.process_file(path)
            sub = parse_source(chunk)
        except (PreprocessError, ParseError, LexError, OSError) as exc:
            raise LintError(f"{path}: {exc}") from exc
        for mod in sub.modules:
            files[mod.name] = path
        source.extend(sub)
    return Design(source, top=args.top), files


def _lint_exit_code(result, strict: bool) -> int:
    if result.errors:
        return 2
    if strict and result.warnings:
        return 1
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import default_registry, render_json, render_sarif, \
        render_text, run_lint

    if args.list_rules:
        for rule_ in default_registry().rules():
            print(f"{rule_.rule_id}  {rule_.severity:<7}  "
                  f"{rule_.category:<12}  {rule_.title}")
        return 0
    if not args.files:
        print("error: no Verilog source files given", file=sys.stderr)
        return 1
    design, files = _load_lint_design(args)
    result = run_lint(design, _lint_config_from_args(args), files=files)
    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    rendered = renderer(result)
    if args.lint_out:
        with open(args.lint_out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.format} report to {args.lint_out} "
              f"({result.summary()})")
    else:
        print(rendered)
    return _lint_exit_code(result, args.strict)


def _cmd_explain(args) -> int:
    from repro.lint.explain import explain_query, render_explain_text

    design, _files = _load_lint_design(args)
    payload = explain_query(design, args.target,
                            direction=args.direction,
                            with_witness=args.witness,
                            seed=args.seed)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_explain_text(payload))
    return 0


def _lint_gate(args, factor: Factor) -> int:
    """Opt-in pre-flight lint for analyze/atpg: errors abort (exit 2)."""
    from repro.lint import run_lint

    from repro.lint.formats import render_finding

    result = run_lint(factor.design)
    if not result.errors:
        _log.info("lint_gate_clean", findings=len(result.diagnostics))
        return 0
    print(f"lint gate failed: {len(result.errors)} error(s)",
          file=sys.stderr)
    for diag in result.errors:
        for line in render_finding(diag):
            print("  " + line, file=sys.stderr)
    return 2


def _cmd_analyze(args) -> int:
    factor = _factor_for(args)
    if getattr(args, "lint", False):
        code = _lint_gate(args, factor)
        if code:
            return code
    result = factor.analyze(args.mut, path=args.path)
    tr = result.transformed
    print(f"MUT {args.mut} at {tr.mut_region}")
    print(f"  extraction : {tr.extraction_seconds:.3f} s "
          f"({result.extraction.tasks_run} tasks, "
          f"{result.extraction.tasks_reused} reused)")
    print(f"  synthesis  : {tr.synthesis_seconds:.3f} s")
    print(f"  transformed: {tr.total_gates} gates "
          f"({tr.mut_gates} MUT + {tr.surrounding_gates} S'), "
          f"{tr.num_pis} PI, {tr.num_pos} PO")
    print(f"  modules    : {', '.join(result.extraction.kept_modules())}")
    if args.out:
        written = result.write_constraints(args.out)
        print(f"  wrote {len(written)} constraint netlists to {args.out}")
    return 0


def _cmd_testability(args) -> int:
    factor = _factor_for(args)
    result = factor.analyze(args.mut, path=args.path)
    print(result.testability.summary())
    return 0


def _run_one_mut(payload):
    """Full pipeline + ATPG for one MUT (serial and pool paths share it)."""
    files, top, mode, defines, includes, use_piers, opts_fields, mut = \
        payload
    factor = Factor.from_files(
        files, top=top,
        mode=(ExtractionMode.CONVENTIONAL if mode == "conventional"
              else ExtractionMode.COMPOSE),
        defines=defines or None, include_dirs=includes)
    result = factor.analyze(mut, use_piers=use_piers)
    return factor.generate_tests(result, AtpgOptions(**opts_fields))


def _atpg_mut_job(payload) -> tuple:
    """Pool worker: resets the per-process registry so the returned
    snapshot is a mergeable delta."""
    get_registry().reset()
    report = _run_one_mut(payload)
    return payload[-1], report, get_registry().snapshot()


def _cmd_atpg(args) -> int:
    muts = args.mut if isinstance(args.mut, list) else [args.mut]
    if len(muts) != len(set(muts)):
        raise ValueError("duplicate --mut values")
    if len(muts) > 1 and args.path:
        raise ValueError("--path only applies to a single --mut; paths "
                         "are inferred for multi-MUT runs")
    if len(muts) == 1:
        factor = _factor_for(args)
        if getattr(args, "lint", False):
            code = _lint_gate(args, factor)
            if code:
                return code
        result = factor.analyze(muts[0], path=args.path,
                                use_piers=not args.no_piers)
        report = factor.generate_tests(result, _atpg_options(args))
        print(format_table(
            f"ATPG report for {muts[0]}",
            [report.as_row()],
        ))
        print(f"detected {report.detected}, "
              f"untestable {report.untestable}, "
              f"aborted {report.aborted} of {report.total_faults} faults")
        return 0

    if getattr(args, "lint", False):
        code = _lint_gate(args, _factor_for(args))
        if code:
            return code
    opts_fields = _atpg_option_fields(args)
    payloads = [(list(args.files), args.top,
                 getattr(args, "mode", "compose"),
                 {k: v for k, v in
                  (item.partition("=")[::2] for item in args.define)},
                 list(args.include), not args.no_piers, opts_fields, mut)
                for mut in muts]
    jobs = min(resolve_jobs(getattr(args, "jobs", None)), len(muts))
    rows = []
    totals = {"detected": 0, "faults": 0}
    if jobs <= 1:
        reports = [_run_one_mut(payload) for payload in payloads]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        parent = get_registry()
        reports = []
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=context) as pool:
            for _mut, report, metrics in pool.map(_atpg_mut_job, payloads):
                parent.merge_snapshot(metrics)
                reports.append(report)
    for report in reports:
        totals["detected"] += report.detected
        totals["faults"] += report.total_faults
        rows.append(report.as_row())
    print(format_table(
        f"ATPG reports for {len(muts)} MUTs (jobs={jobs})", rows))
    print(f"detected {totals['detected']} of {totals['faults']} faults "
          f"across {len(muts)} MUTs")
    return 0


def _phase_of(name: str) -> str:
    return name.split(".", 1)[0]


def _aggregate_phases(root: Span) -> Dict[str, Dict[str, float]]:
    """Per-phase wall/CPU totals over the outermost span of each phase.

    A span counts toward its phase only when its parent belongs to a
    different phase, so nested same-phase spans (``atpg.podem`` under
    ``atpg``) are not double counted.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: Span, parent_phase: Optional[str]) -> None:
        phase = _phase_of(node.name)
        if phase in _PROFILE_PHASES and phase != parent_phase:
            bucket = totals.setdefault(phase, {"wall_s": 0.0, "cpu_s": 0.0})
            bucket["wall_s"] += node.wall_seconds
            bucket["cpu_s"] += node.cpu_seconds
        for child in node.children:
            visit(child, phase)

    for child in root.children:
        visit(child, None)
    return totals


def _profile_rows(root: Span) -> List[Dict[str, object]]:
    totals = _aggregate_phases(root)
    total_wall = root.wall_seconds
    total_cpu = root.cpu_seconds
    rows: List[Dict[str, object]] = []
    covered_wall = 0.0
    covered_cpu = 0.0
    for phase in _PROFILE_PHASES:
        bucket = totals.get(phase, {"wall_s": 0.0, "cpu_s": 0.0})
        covered_wall += bucket["wall_s"]
        covered_cpu += bucket["cpu_s"]
        share = 100.0 * bucket["wall_s"] / total_wall if total_wall else 0.0
        rows.append({
            "phase": phase,
            "wall_s": f"{bucket['wall_s']:.4f}",
            "cpu_s": f"{bucket['cpu_s']:.4f}",
            "wall_%": round(share, 1),
        })
    other_wall = max(0.0, total_wall - covered_wall)
    rows.append({
        "phase": "(other)",
        "wall_s": f"{other_wall:.4f}",
        "cpu_s": f"{max(0.0, total_cpu - covered_cpu):.4f}",
        "wall_%": round(
            100.0 * other_wall / total_wall if total_wall else 0.0, 1),
    })
    rows.append({
        "phase": "total",
        "wall_s": f"{total_wall:.4f}",
        "cpu_s": f"{total_cpu:.4f}",
        "wall_%": 100.0,
    })
    return rows


_PROFILE_METRIC_PREFIXES = (
    "verilog.", "extract.", "compose.", "synth.", "atpg.", "fault_sim.",
    "store.", "campaign.",
)


def _profile_metric_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, snap in get_registry().snapshot().items():
        if not name.startswith(_PROFILE_METRIC_PREFIXES):
            continue
        if snap["type"] == "histogram":
            value = (f"n={snap['count']} mean={snap['mean']:.4g} "
                     f"max={snap['max']:.4g}")
        else:
            value = snap["value"]
        rows.append({"metric": name, "type": snap["type"], "value": value})
    return rows


def _cmd_profile(args) -> int:
    with get_tracer().span("profile", mut=args.mut) as root:
        factor = _factor_for(args)
        result = factor.analyze(args.mut, path=args.path,
                                use_piers=not args.no_piers)
        report = factor.generate_tests(result, _atpg_options(args))

    print(format_table(
        f"Per-phase profile: MUT {args.mut} at {result.mut.path}",
        _profile_rows(root),
        columns=["phase", "wall_s", "cpu_s", "wall_%"],
    ))
    metric_rows = _profile_metric_rows()
    if metric_rows:
        print(format_table("Pipeline metrics", metric_rows,
                           columns=["metric", "type", "value"]))
    print(f"coverage {report.coverage_percent:.2f} %, "
          f"efficiency {report.efficiency_percent:.2f} %, "
          f"{report.num_vectors} vectors "
          f"({report.detected}/{report.total_faults} faults detected)")
    return 0


def _cmd_stats(args) -> int:
    from repro.store import synthesize_cached

    factor = _factor_for(args)
    netlist = synthesize_cached(factor.design, root=args.module)
    stats = netlist_stats(netlist)
    print(format_table(f"Netlist statistics: {netlist.name}",
                       [stats.as_row()]))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.micro import ALL_SUITES, run_bench

    suites = list(args.suite)
    if "all" in suites:
        suites = list(ALL_SUITES)
    return run_bench(out_dir=args.out, quick=args.quick,
                     jobs=args.jobs, seed=args.seed,
                     suites=suites or None)


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        journal_path=args.journal,
        drain_timeout=args.drain_timeout,
        job_timeout=args.job_timeout,
        worker_mode=args.worker_mode,
    )

    def on_started(address: str) -> None:
        # Parsed by scripts/tests that start the server with --port 0.
        print(f"serving on {address}", flush=True)

    return run_server(config, on_started=on_started)


def _submit_source(args) -> str:
    """Local preprocessing, so the server only ever sees plain Verilog."""
    from repro.verilog.preprocess import Preprocessor

    defines = {}
    for item in args.define:
        name, _, value = item.partition("=")
        defines[name] = value
    pp = Preprocessor(defines=defines or None, include_dirs=args.include)
    return "\n".join(pp.process_file(path) for path in args.files)


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeError

    if bool(args.files) == bool(args.design):
        print("error: pass Verilog files or --design, not both/neither",
              file=sys.stderr)
        return 1
    spec = {
        "op": args.op,
        "target": args.target,
        "design": args.design,
        "source": _submit_source(args) if args.files else None,
        "top": args.top,
        "mut": args.mut,
        "path": args.path,
        "mode": args.mode,
        "frames": args.frames,
        "backtrack_limit": args.backtrack_limit,
        "seed": args.seed,
        "fault_model": args.fault_model,
        "random_length": args.random_length,
        "transient_sample": args.transient_sample,
        "use_piers": not args.no_piers,
        "strict": args.strict,
        "deadline_s": args.deadline,
    }
    client = ServeClient(args.server)
    try:
        response = client.submit(spec)
        job = response["job"]
        if not args.as_json:
            origin = job.get("served_from") or (
                "coalesced" if response.get("coalesced") else "queued")
            print(f"job {job['id']}: {job['status']} ({origin})")
        if job["status"] not in ("done", "failed"):
            if args.watch:
                _watch_job(client, job["id"])
                job = client.job(job["id"])
            elif args.wait:
                job = client.wait(job["id"], timeout=args.timeout)
    except ServeError as exc:
        if exc.status == 429:
            print(f"rejected: {exc.message}", file=sys.stderr)
            return 75  # EX_TEMPFAIL: back off and retry
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(job, indent=2))
    else:
        _print_job_outcome(job)
    if job["status"] == "failed":
        return 1
    result = job.get("result") or {}
    if args.op == "lint" and not result.get("clean", True):
        return 2
    return 0


def _print_job_outcome(job: Dict[str, object]) -> None:
    result = job.get("result")
    if job["status"] == "failed":
        print(f"job {job['id']} failed: {job.get('error')}",
              file=sys.stderr)
        return
    if not isinstance(result, dict):
        print(f"job {job['id']}: {job['status']}")
        return
    op = result.get("op")
    if op == "atpg":
        print(format_table(f"ATPG report for {result.get('mut')}",
                           [{k: v for k, v in result.items()
                             if k in ("name", "faults", "detected", "cov%",
                                      "eff%", "seu", "seu_detected",
                                      "seu_cov%", "tgen_s", "total_s",
                                      "tests", "vectors")}]))
    elif op in ("testability", "lint", "explain"):
        print(result.get("summary", ""))
    elif op == "analyze":
        print(f"MUT {result.get('mut')} at {result.get('mut_region')}: "
              f"{result.get('total_gates')} gates "
              f"({result.get('mut_gates')} MUT + "
              f"{result.get('surrounding_gates')} S'), "
              f"{result.get('num_pis')} PI, {result.get('num_pos')} PO")
    served = job.get("served_from")
    if served and served != "pipeline":
        print(f"(served from {served})")


def _watch_job(client, job_id: str) -> None:
    """Render a job's event stream as a live one-line progress display.

    Progress lines overwrite each other on stderr (carriage return, no
    newline) so the terminal shows one updating status line; lifecycle
    events print permanently.  Returns when the stream reaches a
    terminal event or the connection drops — the caller re-fetches the
    job either way.
    """
    live = False

    def clear_line() -> None:
        nonlocal live
        if live:
            print("\r\x1b[K", end="", file=sys.stderr)
            live = False

    try:
        for event in client.events(job_id):
            kind = event.get("event")
            if kind in ("keepalive", "heartbeat"):
                continue
            if kind == "progress":
                fields = ", ".join(
                    f"{k}={v}" for k, v in sorted(event.items())
                    if k not in ("event", "phase", "seq", "t"))
                line = f"[{event.get('phase')}] {fields}"
                print(f"\r\x1b[K{line[:120]}", end="",
                      file=sys.stderr, flush=True)
                live = True
                continue
            clear_line()
            if kind == "done":
                wall = event.get("wall_s")
                extra = f" in {wall:.2f}s" if isinstance(
                    wall, (int, float)) else ""
                print(f"job {job_id} done{extra}", file=sys.stderr)
            elif kind == "failed":
                print(f"job {job_id} failed: {event.get('error')}",
                      file=sys.stderr)
            else:
                print(f"job {job_id}: {kind}", file=sys.stderr)
    except (OSError, TimeoutError) as exc:
        clear_line()
        print(f"watch interrupted ({exc}); fetching final state",
              file=sys.stderr)
    finally:
        clear_line()


def _cmd_jobs(args) -> int:
    from repro.serve import ServeClient, ServeError
    from repro.serve.client import jobs_summary_rows

    client = ServeClient(args.server)
    if args.follow:
        try:
            for event in client.events(args.follow, since=args.since):
                if event.get("event") == "keepalive":
                    continue
                print(json.dumps(event, sort_keys=True), flush=True)
                if event.get("event") in ("done", "failed"):
                    return 0 if event["event"] == "done" else 1
        except (OSError, ServeError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    try:
        listing = client.jobs(status=args.status)
    except (OSError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(listing, indent=2))
        return 0
    rows = jobs_summary_rows(listing)
    if not rows:
        print("no jobs")
    else:
        print(format_table(
            f"Jobs ({listing['queued']} queued, "
            f"{listing['running']} running)", rows))
    return 0


def _default_trace_dir() -> str:
    import os

    from repro.store import default_cache_dir

    return os.path.join(default_cache_dir(), "traces")


def _cmd_trace(args) -> int:
    import os

    from repro.obs.trace import read_trace_jsonl
    from repro.obs.traceview import top_spans, trace_summary, waterfall_rows

    trace_dir = args.trace_dir or _default_trace_dir()
    if args.trace_command == "slow":
        path = os.path.join(trace_dir, "slow_jobs.jsonl")
        entries = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn tail from a crashed writer
                    if isinstance(entry, dict):
                        entries.append(entry)
        except OSError:
            pass
        entries = entries[-args.limit:]
        if args.as_json:
            print(json.dumps(entries, indent=2))
            return 0
        if not entries:
            print(f"no slow jobs recorded under {trace_dir}")
            return 0
        rows = []
        for entry in entries:
            phases = entry.get("phases") or {}
            top = max(phases.items(), key=lambda kv: kv[1])[0] \
                if phases else "-"
            rows.append({
                "job": entry.get("id", "?"),
                "op": entry.get("op", "-"),
                "wall_s": f"{entry.get('wall_s', 0.0):.2f}",
                "threshold_s": f"{entry.get('threshold_s', 0.0):.2f}",
                "hottest_phase": top,
                "trace": entry.get("trace") or "-",
            })
        print(format_table(f"Slow jobs (last {len(rows)})", rows))
        return 0

    # trace show: operand is a file path or a bare job id in trace_dir.
    path = args.trace
    if not os.path.exists(path):
        candidate = os.path.join(trace_dir, f"{args.trace}.jsonl")
        if os.path.exists(candidate):
            path = candidate
        else:
            print(f"error: no trace file {args.trace!r} "
                  f"(also tried {candidate})", file=sys.stderr)
            return 1
    spans = read_trace_jsonl(path)
    if not spans:
        print(f"error: no spans in {path}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(spans, indent=2))
        return 0
    summary = trace_summary(spans)
    print(f"trace {', '.join(summary['trace_ids']) or '?'}: "
          f"{summary['spans']} spans across "
          f"{', '.join(summary['processes']) or '?'}; "
          f"{summary['total_wall_s']:.3f}s total")
    print(format_table("Waterfall", waterfall_rows(spans)))
    rows = top_spans(spans, limit=args.top_spans)
    print(format_table("Top spans by wall time", rows))
    return 0


def _human_bytes(num: int) -> str:
    value = float(num)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError  # pragma: no cover


def _parse_size(text: str) -> int:
    """``512M`` / ``2G`` / ``100KiB`` / plain bytes -> byte count."""
    match = re.fullmatch(
        r"\s*(\d+(?:\.\d+)?)\s*([KkMmGg]i?[Bb]?|[Bb]?)\s*", text)
    if not match:
        raise ValueError(f"bad size {text!r}; expected e.g. 512M or 2G")
    value = float(match.group(1))
    unit = match.group(2).lower().rstrip("b").rstrip("i")
    scale = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}[unit]
    return int(value * scale)


def _cmd_cache(args) -> int:
    from repro.store import get_store, store_disabled

    store = get_store()
    if store_disabled():
        print("artifact store disabled (REPRO_NO_CACHE is set)")
        return 0
    if args.cache_command == "stats":
        stats = store.stats()
        rows = [
            {"stage": stage,
             "entries": bucket["entries"],
             "size": _human_bytes(bucket["bytes"])}
            for stage, bucket in sorted(stats.items())
            if stage != "total"
        ]
        rows.append({"stage": "total",
                     "entries": stats["total"]["entries"],
                     "size": _human_bytes(stats["total"]["bytes"])})
        print(format_table(f"Artifact store: {store.root}", rows,
                           columns=["stage", "entries", "size"]))
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached artifacts from {store.root}")
        return 0
    if args.cache_command == "gc":
        max_bytes = _parse_size(args.max_size)
        removed, remaining = store.gc(max_bytes)
        print(f"evicted {removed} artifacts; store now "
              f"{_human_bytes(remaining)} (cap {_human_bytes(max_bytes)})")
        return 0
    raise AssertionError  # pragma: no cover - argparse enforces choices


def _cmd_piers(args) -> int:
    factor = _factor_for(args)
    rows = []
    for pier in factor.piers():
        rows.append({
            "module": pier.module,
            "register": pier.signal,
            "loadable": "yes" if pier.loadable else "no",
            "storable": "yes" if pier.storable else "no",
            "PIER": "yes" if pier.is_pier else "no",
        })
    print(format_table("PI/PO-accessible registers", rows))
    return 0


def _campaign_spec_for(name_or_path: str):
    """A spec file path, or a bare campaign name whose ``run`` left a
    resolved ``spec.json`` in the campaign directory."""
    import os

    from repro.campaign import CampaignSpec, campaign_dir

    if os.path.exists(name_or_path):
        return CampaignSpec.load(name_or_path)
    saved = os.path.join(campaign_dir(name_or_path), "spec.json")
    if os.path.exists(saved):
        return CampaignSpec.load(saved)
    raise ValueError(
        f"no spec file {name_or_path!r} and no saved spec at {saved}")


def _print_campaign_report(name: str, report: Dict[str, object]) -> None:
    effects = report.get("effects") or []
    if not effects:
        print("no usable trials yet (no effects to fit)")
        return
    rows = [
        {"factor": e["factor"],
         "coverage_effect": f"{e['coverage_effect']:+.4f}",
         "cost_effect": f"{e['cost_effect']:+.4f}"}
        for e in effects
    ]
    print(format_table(
        f"Factor effects: {name} ({report['trials']} trials, "
        f"ranked by |coverage effect|)", rows,
        columns=["factor", "coverage_effect", "cost_effect"]))
    print(f"model fit: coverage R^2 {report['r2_coverage']:.3f} "
          f"(intercept {report['coverage_intercept']:.2f}), "
          f"cost R^2 {report['r2_cost']:.3f} "
          f"(intercept {report['cost_intercept']:.4f} s)")
    if report.get("recommended") is not None:
        knobs = ", ".join(f"{k}={v}" for k, v in
                          sorted(report["recommended"].items()))
        print(f"recommended config: {knobs} "
              f"(best observed {report['best_fitness']:.2f} "
              f"coverage%/cpu-s)")


def _cmd_campaign(args) -> int:
    import dataclasses
    import os

    from repro.campaign import CampaignRunner, TrialDB, campaign_dir, \
        fit_report

    if args.campaign_command == "run":
        spec = _campaign_spec_for(args.spec)
        runner = CampaignRunner(spec, server=args.server, local=args.local,
                                jobs=args.jobs,
                                trial_timeout=args.timeout)
        summary = runner.run()
        # A resolved copy lets status/report work from the bare name.
        os.makedirs(campaign_dir(spec.name), exist_ok=True)
        atomic_write_text(
            os.path.join(campaign_dir(spec.name), "spec.json"),
            json.dumps(dataclasses.asdict(spec), indent=2) + "\n")
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        where = summary["server"] or "local"
        print(f"campaign {spec.name} ({spec.mode}, via {where}): "
              f"{summary['trials']} trials -> {summary['db']}")
        if "factorial" in summary:
            f = summary["factorial"]
            print(f"  factorial   : {f['points']} design points, "
                  f"{f['trials']} trials, {f['failed']} failed")
        if "evolutionary" in summary:
            e = summary["evolutionary"]
            history = " -> ".join(f"{h:.2f}" for h in e["history"])
            print(f"  evolutionary: best fitness {e['best_fitness']:.2f} "
                  f"after {e['generations']} generations "
                  f"({e['evaluations']} evaluations); best/gen {history}")
        _print_campaign_report(spec.name, summary["report"])
        return 0

    if args.campaign_command == "status":
        name = args.name
        if os.path.exists(name):
            name = _campaign_spec_for(name).name
        summary = TrialDB.for_campaign(name).summary()
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        if not summary["trials"]:
            print(f"campaign {name}: no trials recorded "
                  f"(DB {summary['path']})")
            return 0
        phases = ", ".join(f"{k}={v}" for k, v in
                           sorted(summary["phases"].items()))
        print(f"campaign {name}: {summary['trials']} trials ({phases}); "
              f"{summary['coalesced']} deduplicated, "
              f"{summary['failed']} failed")
        print(f"  DB: {summary['path']}")
        return 0

    if args.campaign_command == "report":
        spec = _campaign_spec_for(args.name)
        rows = TrialDB.for_campaign(spec.name).rows()
        report = fit_report(rows, spec.ordered_factors()).as_dict()
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        _print_campaign_report(spec.name, report)
        return 0

    raise AssertionError  # pragma: no cover - argparse enforces choices


_COMMANDS = {
    "analyze": _cmd_analyze,
    "testability": _cmd_testability,
    "atpg": _cmd_atpg,
    "lint": _cmd_lint,
    "explain": _cmd_explain,
    "profile": _cmd_profile,
    "stats": _cmd_stats,
    "piers": _cmd_piers,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "trace": _cmd_trace,
    "campaign": _cmd_campaign,
}


def _write_observability(args) -> None:
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        get_tracer().write_json(trace_out)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        if metrics_out.endswith(".prom"):
            text = get_registry().to_prometheus()
        else:
            text = json.dumps(get_registry().snapshot(), indent=2) + "\n"
        atomic_write_text(metrics_out, text)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    # SIGTERM becomes an exception so long atpg/bench runs exit cleanly
    # (143) with partial metrics flushed; `repro serve` overrides this
    # with loop-level handlers that drain gracefully instead.
    install_sigterm_handler()
    # Fresh per-invocation state so --trace-out / --metrics-out describe
    # exactly this run even when main() is driven in-process.
    get_tracer().reset()
    get_registry().reset()
    try:
        code = _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    except Terminated:
        print("terminated", file=sys.stderr)
        code = SIGTERM_EXIT_CODE
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        code = 1
    except Exception:
        _log.exception("unhandled_error", command=args.command)
        try:
            _write_observability(args)
        except OSError:
            pass
        raise
    try:
        _write_observability(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
