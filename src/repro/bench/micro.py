"""Microbenchmarks for the simulation backends: ``repro bench``.

Two differential benchmark suites, each timed with the observability CPU
clock and written as a ``BENCH_*.json`` payload next to the table output:

- **fault_sim** — the same (vectors, faults) workload through the
  interpreted reference simulator and the arena lane-block backend, once
  per fault model (``model``: ``stuck`` for the collapsed stuck-at list,
  ``seu`` for a seeded transient bit-flip sample).  The detected sets
  must be identical; the row records CPU times and the throughput ratio
  ``arena_x`` (interpreted/arena).
- **atpg** — one deterministic small ATPG configuration run with each
  backend; coverage, efficiency, detections, random-phase yield, test and
  vector counts and the detected-fault sets must be bit-identical (the
  backend may only change speed, never results).  The arena grades the
  random phase as one batch, the interpreted backend one sequence at a
  time, so this row also gates the batch against the per-sequence loop.

Any differential mismatch makes :func:`run_bench` return a non-zero exit
status, so the CI smoke job doubles as an equivalence gate.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.engine import AtpgEngine, AtpgOptions, AtpgReport
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import (AnyFault, Fault, build_fault_list,
                               build_transient_fault_list)
from repro.core.report import format_table
from repro.designs.arm2 import arm2_design
from repro.jobs import resolve_jobs
from repro.obs import RunRecord, atomic_write_text, get_logger, span
from repro.store import synthesize_cached
from repro.synth.netlist import Netlist

_LOG = get_logger("bench.micro")

# Benchmark netlists, built once per process.
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
                  faults: Sequence[AnyFault],
                  repeats: int = 1) -> Tuple[Set[AnyFault], float]:
    """Detected set and best-of-``repeats`` CPU seconds for one backend.

    An untimed warmup over the full workload first populates the
    per-netlist caches (generated good-machine code, the netlist arena),
    so the row reports steady-state throughput — the regime every ATPG
    run after the first operates in.
    """
    sim = FaultSimulator(netlist, backend=backend)
    sim.detected_faults(vectors, faults)
    best = None
    detected: Set[AnyFault] = set()
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
    """Differential interpreted/arena fault simulation rows.

    One row per design and fault model (``model``): ``stuck`` grades the
    collapsed stuck-at list, ``seu`` a seeded sample of transient
    bit-flips drawn from the sites x {0,1} x cycles universe.  Both
    backends see the same (vectors, faults) workload and must return
    bit-identical detected sets.
    """
    designs = ["arm_alu"] if quick else ["arm_alu", "arm2"]
    count = 8 if quick else 16
    sample = 128 if quick else 512
    repeats = 1 if quick else 2
    rows: List[Dict[str, object]] = []
    for name in designs:
        netlist = _bench_netlist(name)
        vectors = random_vectors(netlist, count, seed)
        workloads = (
            ("stuck", _bench_faults(name)),
            ("seu", build_transient_fault_list(netlist, count,
                                               sample=sample, seed=seed)),
        )
        for model, faults in workloads:
            interp, interp_s = _timed_detect(netlist, "interpreted",
                                             vectors, faults, repeats)
            arena, arena_s = _timed_detect(netlist, "arena",
                                           vectors, faults, repeats)
            match = interp == arena
            if not match:
                _LOG.error("fault_sim.mismatch", design=name, model=model,
                           interpreted=len(interp), arena=len(arena))
            rows.append({
                "design": name,
                "model": model,
                "faults": len(faults),
                "vectors": count,
                "interp_s": round(interp_s, 3),
                "arena_s": round(arena_s, 3),
                "interp_kfv_s": round(_kfvs(len(faults), count,
                                            interp_s), 1),
                "arena_kfv_s": round(_kfvs(len(faults), count, arena_s), 1),
                "arena_x": round(interp_s / max(arena_s, 1e-9), 2),
                "detected": len(arena),
                "match": match,
            })
    return rows


def atpg_rows(quick: bool = False,
              seed: int = 2002) -> List[Dict[str, object]]:
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
    runs: Dict[str, Tuple[AtpgEngine, AtpgReport]] = {}
    for backend in ("interpreted", "arena"):
        engine = AtpgEngine(netlist, AtpgOptions(
            fault_sim_backend=backend, **opts))
        with span("bench.atpg", backend=backend) as sp:
            report = engine.run()
        runs[backend] = (engine, report)
        rows.append({
            "backend": backend,
            "faults": report.total_faults,
            "detected": report.detected,
            "cov%": round(report.coverage_percent, 2),
            "eff%": round(report.efficiency_percent, 2),
            "vectors": report.num_vectors,
            "cpu_s": round(sp.cpu_seconds, 3),
        })
    (ea, a), (eb, b) = runs["interpreted"], runs["arena"]
    match = (a.coverage_percent == b.coverage_percent
             and a.efficiency_percent == b.efficiency_percent
             and a.detected == b.detected
             and a.num_vectors == b.num_vectors
             and a.random_detected == b.random_detected
             and a.num_tests == b.num_tests
             and ea.detected_faults == eb.detected_faults)
    if not match:
        _LOG.error("atpg.backend_mismatch", rows=rows)
    for row in rows:
        row["match"] = match
    return rows


#: Suites run by a bare ``repro bench``.  The serve suite is opt-in
#: (``--suite serve`` / ``--suite all``): it boots a server subprocess
#: with its own worker pool, too heavy for the default smoke.
DEFAULT_SUITES = ("fault_sim", "atpg")
ALL_SUITES = DEFAULT_SUITES + ("serve",)


def run_bench(out_dir: str = "benchmarks/results", quick: bool = False,
              jobs: Optional[int] = None, seed: int = 2002,
              suites: Optional[Sequence[str]] = None) -> int:
    """Run the selected suites, print tables, write ``BENCH_*.json``.

    Returns 0 when every differential check passed, 1 otherwise.  Only
    the serve suite runs a worker pool, so only it resolves ``jobs`` and
    records it.
    """
    from repro.bench.serve import serve_rows

    scale = "quick" if quick else "full"
    selected = tuple(suites) if suites else DEFAULT_SUITES
    unknown = [name for name in selected if name not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown bench suite(s): {', '.join(unknown)} "
                         f"(choose from {', '.join(ALL_SUITES)})")
    if "serve" in selected:
        jobs = resolve_jobs(jobs)
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    catalogue = {
        "fault_sim": (
            "Fault simulation (stuck-at and SEU): interpreted vs arena "
            "backend",
            lambda: fault_sim_rows(quick=quick, seed=seed)),
        "atpg": (
            "ATPG backend equivalence (arm_alu)",
            lambda: atpg_rows(quick=quick, seed=seed)),
        "serve": (
            "Job server: cold/warm/coalesced latency and throughput",
            lambda: serve_rows(quick=quick, seed=seed, jobs=jobs)),
    }
    for key in selected:
        title, build = catalogue[key]
        rows = build()
        # Union of keys across rows (first-seen order): the rows of one
        # suite may differ in shape.
        columns = [col for col in dict.fromkeys(
            key for row in rows for key in row) if col != "record"]
        print(format_table(f"{title} [{scale}]", rows, columns=columns))
        if not all(row["match"] for row in rows):
            status = 1
        payload = {"title": title, "scale": scale, "seed": seed}
        if key == "serve":
            payload["jobs"] = jobs
        payload["rows"] = rows
        payload["record"] = RunRecord.capture(f"bench.{key}").as_dict()
        path = os.path.join(out_dir, f"BENCH_{key}.json")
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    if status:
        print("DIFFERENTIAL MISMATCH: a backend disagrees with the "
              "interpreted reference (see rows with match=False)")
    return status
