"""The traced run: the benchmark's own spans, merged with the program's,
reduced to per-layer metrics.

Spans are recorded from the benchmark's files only, by wrapping public
entry points of ``repro`` for the one traced run of an invocation; timed
runs install nothing.  Each span has a name, start, end, parent and the
run's trace id, is kept in memory and is written out when the run ends.

The program's own spans (``parse``, ``extract``, ``compose``, ``synth``,
``atpg.random``, ``atpg.podem``, ``atpg.transient``, ...) are read from
its process-wide tracer and merged with the benchmark's by time
containment: both come from one thread and one clock, so a span's parent
is the innermost span whose interval holds it.  A span's self time is its
duration minus the part its children cover; every span belongs to one
layer, and the layers' self times add up to the run's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Layer of each span name, named after the ``repro`` module doing the
#: work.  ``bench`` is the run's root span: time no layer span covers.
LAYER_OF = {
    "run": "bench",
    "parse": "verilog",
    "parse.preprocess": "verilog",
    "parse.store": "verilog",
    "Factor.from_verilog": "hierarchy",
    "Design.chaindb": "hierarchy",
    "analyze": "core",
    "ConstraintComposer.extract": "core",
    "extract": "core",
    "extract.store": "core",
    "ConstraintComposer.transform": "core",
    "compose": "core",
    "testability": "core",
    "analyze_testability": "core",
    "piers": "core",
    "find_piers": "core",
    "synth": "synth",
    "synth.elaborate": "synth",
    "synth.opt": "synth",
    "synth.store": "synth",
    "AtpgEngine.run": "atpg",
    "atpg": "atpg",
    "atpg.random": "atpg",
    "atpg.transient": "atpg",
    "atpg.store": "atpg",
    "atpg.podem": "podem",
    "SequentialAtpg.generate": "podem",
    "FaultSimulator.detected_faults": "fault_sim",
    "ArtifactStore.get": "store",
    "ArtifactStore.put": "store",
    "execute_job": "serve.worker",
    "serve.execute": "serve.worker",
    "CampaignRunner.run": "campaign",
    "campaign.run": "campaign",
    "campaign.factorial": "campaign",
}

#: The layer each workload was chosen to stress, and the share of the
#: traced run's wall time it should hold.
PREMISE = {
    "alu_podem": "podem",
    "seu_campaign": "fault_sim",
    "factor_extract": "synth",
}
PREMISE_MIN_PCT = 60.0
#: Layer self times must cover at least this share of the run.
ATTRIBUTED_MIN_PCT = 95.0


class SpanLog:
    """The benchmark's own spans for one run, kept in memory."""

    def __init__(self) -> None:
        self.trace_id = os.urandom(16).hex()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "trace_id": self.trace_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(
                    dict(record, layer=LAYER_OF.get(record["name"], "other")))
                    + "\n")


def _wrap(owner: Any, attr: str, log: SpanLog, name: str,
          describe: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a version that runs inside a span."""
    original = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(original, classmethod)
    func = original.__func__ if is_classmethod else original

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with log.span(name) as record:
            result = func(*args, **kwargs)
            if describe is not None:
                record["attrs"].update(describe(args, kwargs, result))
            return result

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def _podem_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"status": result.status, "cpu_s": result.cpu_seconds}


def _fault_sim_attrs(args, kwargs, result) -> Dict[str, Any]:
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    faults = args[2] if len(args) > 2 else kwargs["faults"]
    return {"fault_vectors": len(vectors) * len(faults)}


def _engine_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"workers": args[0].parallel_workers}


def install(log: SpanLog) -> None:
    """Wrap the public entry points the per-layer numbers are built on."""
    import repro.core.factor as factor_module
    import repro.serve.worker as worker_module
    from repro.atpg.engine import AtpgEngine, SequentialAtpg
    from repro.atpg.fault_sim import FaultSimulator
    from repro.campaign.runner import CampaignRunner
    from repro.core.composer import ConstraintComposer
    from repro.hierarchy.design import Design
    from repro.store import ArtifactStore

    _wrap(factor_module.Factor, "from_verilog", log, "Factor.from_verilog")
    _wrap(Design, "chaindb", log, "Design.chaindb")
    _wrap(ConstraintComposer, "extract", log, "ConstraintComposer.extract")
    _wrap(ConstraintComposer, "transform", log,
          "ConstraintComposer.transform")
    # Factor.analyze calls these through its own module's globals.
    _wrap(factor_module, "analyze_testability", log, "analyze_testability")
    _wrap(factor_module, "find_piers", log, "find_piers")
    _wrap(AtpgEngine, "run", log, "AtpgEngine.run", _engine_attrs)
    _wrap(SequentialAtpg, "generate", log, "SequentialAtpg.generate",
          _podem_attrs)
    _wrap(FaultSimulator, "detected_faults", log,
          "FaultSimulator.detected_faults", _fault_sim_attrs)
    _wrap(ArtifactStore, "get", log, "ArtifactStore.get")
    _wrap(ArtifactStore, "put", log, "ArtifactStore.put")
    # CampaignRunner looks execute_job up in its module at call time.
    _wrap(worker_module, "execute_job", log, "execute_job")
    _wrap(CampaignRunner, "run", log, "CampaignRunner.run")


# -- reduction -------------------------------------------------------------------


def merged_spans(log: SpanLog, root: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Benchmark and program spans inside ``root``, each with its self
    time (duration minus the part covered by its children)."""
    from repro.obs import get_tracer

    start, end = root["start"], root["end"]
    nodes = [{"name": s["name"], "start": s["start"], "end": s["end"],
              "attrs": s["attrs"]} for s in log.spans
             if start <= s["start"] and s["end"] <= end]
    nodes += [{"name": s.name, "start": s.start_wall, "end": s.end_wall,
               "attrs": s.attrs} for s in get_tracer().all_spans()
              if start <= s.start_wall and s.end_wall <= end]
    nodes.sort(key=lambda n: (n["start"], -n["end"]))
    stack: List[Dict[str, Any]] = []
    for node in nodes:
        node["self"] = node["end"] - node["start"]
        while stack and node["end"] > stack[-1]["end"]:
            stack.pop()
        if stack:
            stack[-1]["self"] -= node["end"] - node["start"]
        stack.append(node)
    return nodes


def _percentile(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(nodes: List[Dict[str, Any]], wall: float,
                  counters: Dict[str, Dict[str, Any]],
                  workload: str) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    self_s: Dict[str, float] = {}
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for node in nodes:
        layer = LAYER_OF.get(node["name"], "other")
        self_s[layer] = self_s.get(layer, 0.0) + node["self"]
        by_name.setdefault(node["name"], []).append(node)

    def layer(name: str) -> float:
        return self_s.get(name, 0.0)

    def spans(name: str) -> List[Dict[str, Any]]:
        return by_name.get(name, [])

    def inclusive(name: str) -> float:
        return sum(n["end"] - n["start"] for n in spans(name))

    def count(name: str) -> int:
        data = counters.get(name)
        return data["value"] if data else 0

    def count_sum(prefix: str, suffix: str) -> int:
        return sum(data["value"] for name, data in counters.items()
                   if name.startswith(prefix) and name.endswith(suffix)
                   and data.get("type") == "counter")

    podem = spans("SequentialAtpg.generate")
    podem_ms = [1000.0 * (n["end"] - n["start"]) for n in podem]
    useful = sum(1 for n in podem
                 if n["attrs"].get("status") in ("detected", "untestable"))
    sims = spans("FaultSimulator.detected_faults")
    sim_ms = [1000.0 * (n["end"] - n["start"]) for n in sims]
    fault_vectors = sum(n["attrs"].get("fault_vectors", 0) for n in sims)
    tasks_run = count("extract.tasks_run")
    tasks_reused = count("extract.tasks_reused")
    trials = count("campaign.trials_run")
    deduped = count("campaign.trials_coalesced")
    attributed = wall - layer("bench") - layer("other")
    return {
        "verilog.parse_s": layer("verilog"),
        "verilog.tokens_per_s": _ratio(count("verilog.tokens"),
                                       layer("verilog")),
        "hierarchy.design_s": layer("hierarchy"),
        "core.self_s": layer("core"),
        "core.extract_s": inclusive("extract"),
        "core.tasks_run": tasks_run,
        "core.tasks_reused": tasks_reused,
        "core.reuse_pct": 100.0 * _ratio(tasks_reused,
                                         tasks_run + tasks_reused),
        "core.compose_s": inclusive("compose"),
        "core.testability_s": inclusive("analyze_testability"),
        "core.piers_s": inclusive("find_piers"),
        "synth.s": layer("synth"),
        "synth.calls": len(spans("synth")),
        "synth.gates_in": sum(n["attrs"].get("gates_before", 0)
                              for n in spans("synth.opt")),
        "synth.gates_out": sum(n["attrs"].get("gates_after", 0)
                               for n in spans("synth.opt")),
        "atpg.self_s": layer("atpg"),
        "atpg.random_s": inclusive("atpg.random"),
        "atpg.transient_s": inclusive("atpg.transient"),
        "podem.s": layer("podem"),
        "podem.targets": len(podem),
        "podem.implications": count("atpg.implications"),
        "podem.backtracks": count("atpg.backtracks"),
        "podem.implications_per_s": _ratio(count("atpg.implications"),
                                           layer("podem")),
        "podem.fault_p50_ms": _percentile(podem_ms, 50),
        "podem.fault_p90_ms": _percentile(podem_ms, 90),
        "podem.useful_ratio": _ratio(useful, len(podem)),
        "podem.aborted_s": sum(n["attrs"]["cpu_s"] for n in podem
                               if n["attrs"].get("status") == "aborted"),
        "podem.workers": max((n["attrs"].get("workers", 0)
                              for n in spans("AtpgEngine.run")), default=0),
        "fault_sim.s": layer("fault_sim"),
        "fault_sim.calls": len(sims),
        "fault_sim.call_p50_ms": _percentile(sim_ms, 50),
        "fault_sim.call_p90_ms": _percentile(sim_ms, 90),
        "fault_sim.fault_vectors": fault_vectors,
        "fault_sim.kfv_per_s": _ratio(fault_vectors / 1000.0,
                                      layer("fault_sim")),
        "fault_sim.filtered_ratio": _ratio(
            count("fault_sim.arena.filtered_undetectable"),
            count("fault_sim.faults_simulated")),
        "fault_sim.codegen_builds": count("fault_sim.arena.codegen_builds"),
        "fault_sim.fallback_calls": count("fault_sim.arena.fallback_calls"),
        "store.get_s": sum(n["self"] for n in spans("ArtifactStore.get")),
        "store.put_s": sum(n["self"] for n in spans("ArtifactStore.put")),
        "store.hits": count_sum("store.", ".hits"),
        "store.misses": count_sum("store.", ".misses"),
        "store.bytes_read": count_sum("store.", ".bytes_read"),
        "store.bytes_written": count_sum("store.", ".bytes_written"),
        "campaign.trials": trials,
        "campaign.executed": trials - deduped,
        "campaign.dedup_ratio": _ratio(deduped, trials),
        "campaign.self_s": layer("campaign"),
        "serve.execute_s": layer("serve.worker"),
        "trace.run_s": wall,
        "trace.unattributed_s": wall - attributed,
        "trace.attributed_pct": 100.0 * _ratio(attributed, wall),
        "trace.premise_pct": 100.0 * _ratio(layer(PREMISE[workload]), wall),
    }
