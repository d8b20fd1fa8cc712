"""Microbenchmarks for the simulation backends: ``repro bench``.

Two differential benchmark suites, each timed with the observability CPU
clock and written as a ``BENCH_*.json`` payload next to the table output:

- **fault_sim** — the same (vectors, faults) workload through the
  interpreted reference simulator and the arena lane-block backend.  The
  detected sets must be identical; the row records CPU times and the
  throughput ratio ``arena_x`` (interpreted/arena).
- **atpg** — one deterministic small ATPG configuration run with each
  backend; coverage, efficiency, detections and vector counts must be
  bit-identical (the backend may only change speed, never results).

Any differential mismatch makes :func:`run_bench` return a non-zero exit
status, so the CI smoke job doubles as an equivalence gate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator, available_cores
from repro.atpg.faults import Fault, build_fault_list
from repro.bench.experiments import resolve_jobs
from repro.core.report import format_table
from repro.designs.arm2 import arm2_design
from repro.obs import RunRecord, atomic_write_text, get_logger, span
from repro.store import synthesize_cached
from repro.synth.netlist import Netlist

_LOG = get_logger("bench.micro")

# Benchmark netlists, built once per process (the pool workers re-use the
# warm cache under the default fork start method).
_NETLISTS: Dict[str, Netlist] = {}
_FAULTS: Dict[str, List[Fault]] = {}


def _bench_netlist(name: str) -> Netlist:
    if name not in _NETLISTS:
        if name == "arm2":
            _NETLISTS[name] = synthesize_cached(arm2_design())
        else:
            _NETLISTS[name] = synthesize_cached(arm2_design(),
                                                root=name, name=name)
    return _NETLISTS[name]


def _bench_faults(name: str) -> List[Fault]:
    if name not in _FAULTS:
        _FAULTS[name] = build_fault_list(_bench_netlist(name))
    return _FAULTS[name]


def random_vectors(netlist: Netlist, count: int,
                   seed: int) -> List[Dict[int, int]]:
    """Seeded fully-specified random input vectors."""
    rng = random.Random(seed)
    return [{pi: rng.randint(0, 1) for pi in netlist.pis}
            for _ in range(count)]


def _timed_detect(netlist: Netlist, backend: str,
                  vectors: Sequence[Dict[int, int]],
                  faults: Sequence[Fault],
                  repeats: int = 1) -> Tuple[Set[Fault], float]:
    """Detected set and best-of-``repeats`` CPU seconds for one backend.

    An untimed warmup over the full workload first populates the
    per-netlist caches (generated good-machine code, the netlist arena),
    so the row reports steady-state throughput — the regime every ATPG
    run after the first operates in.
    """
    sim = FaultSimulator(netlist, backend=backend)
    sim.detected_faults(vectors, faults)
    best = None
    detected: Set[Fault] = set()
    for _ in range(max(1, repeats)):
        with span("bench.fault_sim", backend=backend,
                  design=netlist.name) as sp:
            detected = sim.detected_faults(vectors, faults)
        if best is None or sp.cpu_seconds < best:
            best = sp.cpu_seconds
    return detected, best or 0.0


def _kfvs(faults: int, vectors: int, seconds: float) -> float:
    """Throughput in thousands of fault-vector evaluations per second."""
    return faults * vectors / max(seconds, 1e-9) / 1000.0


def fault_sim_rows(quick: bool = False,
                   seed: int = 2002) -> List[Dict[str, object]]:
    """Differential interpreted/arena fault simulation rows."""
    designs = ["arm_alu"] if quick else ["arm_alu", "arm2"]
    count = 8 if quick else 16
    rows: List[Dict[str, object]] = []
    for name in designs:
        netlist = _bench_netlist(name)
        faults = _bench_faults(name)
        vectors = random_vectors(netlist, count, seed)
        repeats = 1 if quick else 2
        interp, interp_s = _timed_detect(netlist, "interpreted",
                                         vectors, faults, repeats)
        arena, arena_s = _timed_detect(netlist, "arena",
                                       vectors, faults, repeats)
        match = interp == arena
        if not match:
            _LOG.error("fault_sim.mismatch", design=name,
                       interpreted=len(interp), arena=len(arena))
        rows.append({
            "design": name,
            "faults": len(faults),
            "vectors": count,
            "interp_s": round(interp_s, 3),
            "arena_s": round(arena_s, 3),
            "interp_kfv_s": round(_kfvs(len(faults), count, interp_s), 1),
            "arena_kfv_s": round(_kfvs(len(faults), count, arena_s), 1),
            "arena_x": round(interp_s / max(arena_s, 1e-9), 2),
            "detected": len(arena),
            "match": match,
        })
    return rows


#: The committed arm2 intra-run parallelism benchmark configuration.
#: ``fault_time_limit`` is set high so the backtrack limit always binds
#: first: backtrack-bounded search is exactly reproducible, which is what
#: lets the serial and parallel runs assert bit-identical classification
#: (a CPU-time bound can cut a borderline fault differently between any
#: two runs, serial ones included).
ARM2_PARALLEL_OPTS = dict(
    max_frames=2,
    frame_schedule=(1, 2),
    backtrack_limit=50,
    fault_time_limit=10.0,
    random_sequences=8,
    random_sequence_length=16,
    fault_sample=3000,
)


def atpg_parallel_rows(quick: bool = False, seed: int = 2002,
                       jobs: Optional[int] = None
                       ) -> List[Dict[str, object]]:
    """arm2 single-run ATPG, serial vs fault-parallel PODEM.

    The parallel run must reproduce the serial detected / untestable /
    aborted fault sets, coverage and vector count exactly — the speedup
    column is only meaningful because the ``match`` column proves both
    rows did identical work.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return []
    netlist = _bench_netlist("arm2")
    opts = dict(ARM2_PARALLEL_OPTS, seed=seed)
    if quick:
        opts.update(backtrack_limit=20, fault_sample=600,
                    random_sequences=4)
    cores = available_cores()
    runs: Dict[str, Tuple[AtpgEngine, float]] = {}
    rows: List[Dict[str, object]] = []
    for mode, n in (("serial", 1), (f"parallel(j={jobs})", jobs)):
        engine = AtpgEngine(netlist, AtpgOptions(jobs=n, **opts))
        # Force the fork pool past should_parallelize() for the parallel
        # leg: the row is a differential proof that the machinery
        # reproduces serial results bit-for-bit, and it must exercise the
        # real pool even on hosts (single-core CI boxes) where the engine
        # would sensibly decline.  The ``cores`` column tells readers when
        # the speedup number is meaningful (cores >= workers) and when it
        # merely measures timesharing overhead.
        forced = {"REPRO_PARALLEL_MIN_CORES": "1",
                  "REPRO_PARALLEL_MIN_FAULTS": "1",
                  "REPRO_PARALLEL_MIN_GATES": "1"} if n > 1 else {}
        saved = {k: os.environ.get(k) for k in forced}
        os.environ.update(forced)
        try:
            with span("bench.atpg_parallel", mode=mode,
                      design="arm2") as sp:
                report = engine.run()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        # Worker CPU is invisible to the parent CPU clock: compare wall.
        runs[mode] = (engine, sp.wall_seconds)
        rows.append({
            "design": "arm2",
            "mode": mode,
            "workers": engine.parallel_workers or 1,
            "cores": cores,
            "faults": report.total_faults,
            "detected": report.detected,
            "untestable": report.untestable,
            "cov%": round(report.coverage_percent, 2),
            "vectors": report.num_vectors,
            "wall_s": round(sp.wall_seconds, 2),
        })
    serial_engine, serial_s = runs["serial"]
    par_engine, par_s = runs[f"parallel(j={jobs})"]
    match = (
        serial_engine.detected_faults == par_engine.detected_faults
        and serial_engine.untestable_faults == par_engine.untestable_faults
        and serial_engine.aborted_faults == par_engine.aborted_faults
        and serial_engine.tests == par_engine.tests
    )
    if not match:
        _LOG.error("atpg.parallel_mismatch",
                   serial=len(serial_engine.detected_faults),
                   parallel=len(par_engine.detected_faults))
    speedup = serial_s / max(par_s, 1e-9)
    for row in rows:
        row["match"] = match
        row["speedup_x"] = (round(speedup, 2)
                            if row["mode"] != "serial" else 1.0)
    return rows


def atpg_rows(quick: bool = False, seed: int = 2002,
              jobs: Optional[int] = None) -> List[Dict[str, object]]:
    """One small deterministic ATPG run per backend; results must match."""
    netlist = _bench_netlist("arm_alu")
    opts = dict(
        max_frames=2,
        frame_schedule=(1, 2),
        backtrack_limit=50,
        fault_time_limit=0.1,
        total_time_limit=120.0,
        random_sequences=2,
        random_sequence_length=8,
        seed=seed,
        fault_sample=40 if quick else None,
    )
    rows: List[Dict[str, object]] = []
    reports = {}
    for backend in ("interpreted", "arena"):
        engine = AtpgEngine(netlist, AtpgOptions(
            fault_sim_backend=backend, **opts))
        with span("bench.atpg", backend=backend) as sp:
            report = engine.run()
        reports[backend] = report
        rows.append({
            "backend": backend,
            "faults": report.total_faults,
            "detected": report.detected,
            "cov%": round(report.coverage_percent, 2),
            "eff%": round(report.efficiency_percent, 2),
            "vectors": report.num_vectors,
            "cpu_s": round(sp.cpu_seconds, 3),
        })
    a, b = reports["interpreted"], reports["arena"]
    match = (a.coverage_percent == b.coverage_percent
             and a.efficiency_percent == b.efficiency_percent
             and a.detected == b.detected
             and a.num_vectors == b.num_vectors)
    if not match:
        _LOG.error("atpg.backend_mismatch", rows=rows)
    for row in rows:
        row["match"] = match
    return rows


def warm_pipeline_rows(quick: bool = False,
                       seed: int = 2002) -> List[Dict[str, object]]:
    """Cold-vs-warm end-to-end pipeline run against a fresh artifact store.

    Runs the full CLI (``repro atpg`` on the bundled arm2, arm_alu MUT)
    twice in subprocesses sharing one freshly created ``REPRO_CACHE_DIR``.
    The first run is cold (every store stage misses and publishes); the
    second is warm (parse, extraction, synthesis, codegen and the final
    ATPG report all load from the store).  The reports must be
    byte-identical — the stored report carries the cold run's timing
    fields, so even ``tgen_s`` matches — and the row records the
    end-to-end wall-clock speedup.
    """
    from repro.designs import arm2_source

    frames, backtracks = ("1", "10") if quick else ("2", "50")
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    work = tempfile.mkdtemp(prefix="repro-warm-bench-")
    rows: List[Dict[str, object]] = []
    try:
        design_path = os.path.join(work, "arm2.v")
        atomic_write_text(design_path, arm2_source())
        cache_dir = os.path.join(work, "store")
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
        env.pop("REPRO_NO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        outputs: Dict[str, str] = {}
        timings: Dict[str, float] = {}
        hits: Dict[str, int] = {}
        for mode in ("cold", "warm"):
            metrics_path = os.path.join(work, f"metrics-{mode}.json")
            cmd = [sys.executable, "-m", "repro", "atpg", design_path,
                   "--top", "arm", "--mut", "arm_alu",
                   "--frames", frames, "--backtrack-limit", backtracks,
                   "--seed", str(seed), "--metrics-out", metrics_path]
            with span("bench.warm_pipeline", mode=mode) as sp:
                proc = subprocess.run(cmd, env=env, capture_output=True,
                                      text=True)
            if proc.returncode != 0:
                _LOG.error("warm_pipeline.run_failed", mode=mode,
                           returncode=proc.returncode,
                           stderr=proc.stderr[-2000:])
            outputs[mode] = proc.stdout
            timings[mode] = sp.wall_seconds
            with open(metrics_path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            hits[mode] = sum(
                metric.get("value", 0)
                for name, metric in snapshot.items()
                if name.startswith("store.") and name.endswith(".hits"))
        match = outputs["cold"] == outputs["warm"] and bool(outputs["cold"])
        if not match:
            _LOG.error("warm_pipeline.report_mismatch")
        speedup = timings["cold"] / max(timings["warm"], 1e-9)
        for mode in ("cold", "warm"):
            rows.append({
                "mode": mode,
                "design": "arm2/arm_alu",
                "wall_s": round(timings[mode], 3),
                "store_hits": hits[mode],
                "speedup_x": round(speedup, 2) if mode == "warm" else 1.0,
                "match": match,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rows


def transient_sim_rows(quick: bool = False,
                       seed: int = 2002) -> List[Dict[str, object]]:
    """Differential SEU (transient bit-flip) fault simulation rows.

    The same seeded (vector sequence, transient fault sample) workload
    through the interpreted reference and the arena lane-block backend;
    the detected sets must be bit-identical.  The transient universe is
    sites x {0,1} x cycles, so the sample is drawn per design from the
    same seed both backends see.
    """
    from repro.atpg.faults import build_transient_fault_list

    designs = ["arm_alu"] if quick else ["arm_alu", "arm2"]
    cycles = 8 if quick else 16
    sample = 128 if quick else 512
    rows: List[Dict[str, object]] = []
    for name in designs:
        netlist = _bench_netlist(name)
        vectors = random_vectors(netlist, cycles, seed)
        faults = build_transient_fault_list(netlist, cycles,
                                            sample=sample, seed=seed)
        interp, interp_s = _timed_detect(netlist, "interpreted",
                                         vectors, faults)
        arena, arena_s = _timed_detect(netlist, "arena", vectors, faults)
        match = interp == arena
        if not match:
            _LOG.error("transient_sim.mismatch", design=name,
                       interpreted=len(interp), arena=len(arena))
        rows.append({
            "design": name,
            "faults": len(faults),
            "cycles": cycles,
            "interp_s": round(interp_s, 3),
            "arena_s": round(arena_s, 3),
            "interp_kfv_s": round(_kfvs(len(faults), cycles, interp_s), 1),
            "arena_kfv_s": round(_kfvs(len(faults), cycles, arena_s), 1),
            "speedup_x": round(interp_s / max(arena_s, 1e-9), 2),
            "detected": len(arena),
            "match": match,
        })
    return rows


def campaign_rows(quick: bool = False,
                  seed: int = 2002) -> List[Dict[str, object]]:
    """SEU differential rows plus one tiny local factorial campaign.

    The campaign row runs a 4-point, random-phase-only transient sweep
    on the bundled arm2 through :class:`CampaignRunner`'s local path
    (the serve worker entry point), so the bench covers spec -> design
    -> trials -> trial DB -> fitted report end to end.  ``match``
    asserts every trial succeeded and the report fitted every factor.
    """
    from repro.campaign import CampaignRunner, CampaignSpec

    rows = transient_sim_rows(quick=quick, seed=seed)
    spec = CampaignSpec.from_dict({
        "name": f"bench-campaign-{'quick' if quick else 'full'}",
        "design": "arm2",
        "mut": "arm_alu",
        "mode": "factorial",
        "seed": seed,
        "max_trials": 4,
        "base": {"frames": 1, "fault_model": "transient",
                 "backtrack_limit": 10},
        "factors": {
            "random_length": [4, 8] if quick else [8, 16],
            "transient_sample": [16, 32] if quick else [64, 128],
        },
    })
    with span("bench.campaign", campaign=spec.name) as sp:
        summary = CampaignRunner(spec, local=True).run()
    factorial = summary.get("factorial", {})
    report = summary.get("report", {})
    match = (factorial.get("failed", 1) == 0
             and report.get("trials", 0) == factorial.get("trials")
             and len(report.get("effects") or []) == len(spec.factors))
    if not match:
        _LOG.error("campaign.bench_mismatch", summary=summary)
    rows.append({
        "design": "arm2/arm_alu (campaign)",
        "faults": summary.get("trials", 0),
        "detected": factorial.get("trials", 0) - factorial.get("failed", 0),
        "wall_s": round(sp.wall_seconds, 3),
        "speedup_x": 1.0,
        "match": match,
    })
    return rows


#: Suites run by a bare ``repro bench``.  The serve and campaign suites
#: are opt-in (``--suite serve`` / ``--suite campaign`` / ``--suite
#: all``): serve boots a server subprocess with its own worker pool, and
#: campaign runs end-to-end pipeline trials — both too heavy for the
#: default smoke.
DEFAULT_SUITES = ("fault_sim", "atpg", "warm_pipeline")
ALL_SUITES = DEFAULT_SUITES + ("serve", "campaign")


def run_bench(out_dir: str = "benchmarks/results", quick: bool = False,
              jobs: Optional[int] = None, seed: int = 2002,
              suites: Optional[Sequence[str]] = None) -> int:
    """Run the selected suites, print tables, write ``BENCH_*.json``.

    Returns 0 when every differential check passed, 1 otherwise.
    """
    from repro.bench.serve import serve_rows

    jobs = resolve_jobs(jobs)
    scale = "quick" if quick else "full"
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    selected = tuple(suites) if suites else DEFAULT_SUITES
    unknown = [name for name in selected if name not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown bench suite(s): {', '.join(unknown)} "
                         f"(choose from {', '.join(ALL_SUITES)})")
    catalogue = {
        "fault_sim": (
            "Fault simulation: interpreted vs arena backend",
            lambda: fault_sim_rows(quick=quick, seed=seed)),
        "atpg": (
            "ATPG backend equivalence (arm_alu) + "
            "serial-vs-parallel PODEM (arm2)",
            lambda: atpg_rows(quick=quick, seed=seed)
            + atpg_parallel_rows(quick=quick, seed=seed, jobs=jobs)),
        "warm_pipeline": (
            "Warm-start pipeline: cold vs warm artifact store",
            lambda: warm_pipeline_rows(quick=quick, seed=seed)),
        "serve": (
            "Job server: cold/warm/coalesced latency and throughput",
            lambda: serve_rows(quick=quick, seed=seed, jobs=jobs)),
        "campaign": (
            "SEU transient fault sim (interpreted vs arena) + "
            "local factorial campaign",
            lambda: campaign_rows(quick=quick, seed=seed)),
    }
    for key in selected:
        title, build = catalogue[key]
        rows = build()
        # Union of keys across rows (first-seen order): suites may mix row
        # shapes, e.g. the atpg suite's backend rows and parallel rows.
        columns = [col for col in dict.fromkeys(
            key for row in rows for key in row) if col != "record"]
        print(format_table(f"{title} [{scale}]", rows, columns=columns))
        if not all(row["match"] for row in rows):
            status = 1
        payload = {
            "title": title,
            "scale": scale,
            "seed": seed,
            "jobs": jobs,
            "rows": rows,
            "record": RunRecord.capture(f"bench.{key}").as_dict(),
        }
        path = os.path.join(out_dir, f"BENCH_{key}.json")
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    if status:
        print("DIFFERENTIAL MISMATCH: a backend disagrees with the "
              "interpreted reference (see rows with match=False)")
    return status
