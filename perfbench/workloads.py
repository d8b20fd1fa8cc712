"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload is three steps, all in one fresh process per run:

- ``prepare(seed)`` builds the inputs (design source, options, campaign
  spec) from the seed and imports the modules the run calls.  It runs
  before the clock starts and is what ``setup_s`` measures, together with
  interpreter start.
- ``run(inputs)`` is the timed part: the program's own work, from the
  generated inputs to its result.
- ``outputs(inputs, result)`` reads the result into plain data: the
  deterministic ``summary`` that repeat runs of one seed must reproduce,
  the quality figures, the input sizes and the number of operations (a
  run, a trial or a MUT analysis).  It runs after the clock stops.

The output checks live in :mod:`checks`; this module only produces what
they compare.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from checks import trial_key

WORKLOADS = ("alu_podem", "seu_campaign", "factor_extract")

# -- alu_podem -----------------------------------------------------------------
#
# One cold FACTOR run on arm2 with the ALU as module under test, then the
# deterministic PODEM phase on a seeded sample of its stuck-at faults.
# There is no random phase: which faults random vectors happen to catch
# swings with the seed (263 to 480 of 700 faults over five seeds), and
# the run time with it (5.1 to 8.8 s).  PODEM effort on a seeded sample
# is steadier the more faults it holds, so the sample is large and each
# search short: one time frame and a small backtrack limit (262k to 275k
# implications over five seeds, where a 120-fault two-frame sample ranged
# from 250k to 316k).
# The per-fault CPU limit never binds, so classification depends only on
# (netlist, options, seed).

ALU_MUT = "arm_alu"
ALU_PATH = "u_core.u_dp.u_alu."
PODEM_SAMPLE = 300
PODEM_OPTIONS = dict(
    max_frames=1,
    backtrack_limit=5,
    fault_time_limit=10.0,
    random_sequences=0,
    fault_sample=PODEM_SAMPLE,
)

# -- seu_campaign ----------------------------------------------------------------
#
# A 2^(3-1) fractional factorial, each point run twice: 8 trials, 4 of
# which execute and 4 coalesce onto their replicate.  Transient trials
# skip PODEM, so fault simulation (random-phase grading plus SEU
# injection) is most of the work.

SEU_FACTORS = {
    "mut": ["arm_alu", "regfile_struct"],
    "random_length": [8, 16],
    "transient_sample": [128, 256],
}
SEU_TRIALS = 8
SEU_EXECUTED = 4

# -- factor_extract ----------------------------------------------------------------
#
# The Tables 1-3 flow without ATPG: every arm2 MUT in both extraction
# modes.  The seed shuffles the MUT order, which moves the compositional
# reuse between extractions but not what each extraction produces.

MODES = ("compose", "conventional")


def _counter(name: str) -> int:
    from repro.obs import get_registry

    data = get_registry().snapshot(name).get(name)
    return int(data["value"]) if data else 0


# -- alu_podem ---------------------------------------------------------------------


def prepare_alu_podem(seed: int) -> Dict[str, Any]:
    from repro.atpg.engine import AtpgEngine, AtpgOptions  # noqa: F401
    from repro.core.factor import Factor  # noqa: F401
    from repro.designs import arm2_source

    return {"source": arm2_source(), "seed": seed}


def run_alu_podem(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.atpg.engine import AtpgEngine, AtpgOptions
    from repro.core.factor import Factor

    factor = Factor.from_verilog(inputs["source"], top="arm")
    analysis = factor.analyze(ALU_MUT, path=ALU_PATH)
    # The two option fields Factor.generate_tests derives from the
    # analysis; the engine is built here so the checks can read its
    # tests and fault sets.
    options = AtpgOptions(seed=inputs["seed"], **PODEM_OPTIONS)
    options.fault_region = analysis.transformed.mut_region
    options.pier_qs = frozenset(analysis.pier_nets)
    engine = AtpgEngine(analysis.transformed.netlist, options)
    report = engine.run()
    return {"netlist": analysis.transformed.netlist, "options": options,
            "engine": engine, "report": report}


def outputs_alu_podem(inputs: Dict[str, Any],
                      result: Dict[str, Any]) -> Dict[str, Any]:
    from repro.atpg.faults import build_fault_list

    report, netlist = result["report"], result["netlist"]
    summary = {
        "faults": report.total_faults,
        "detected": report.detected,
        "untestable": report.untestable,
        "aborted": report.aborted,
        "tests": report.num_tests,
        "vectors": report.num_vectors,
        "implications": _counter("atpg.implications"),
        "backtracks": _counter("atpg.backtracks"),
    }
    quality = {
        "fault_coverage_pct": report.coverage_percent,
        "atpg_efficiency_pct": report.efficiency_percent,
        "test_vectors": report.num_vectors,
    }
    sizes = {
        "source_chars": len(inputs["source"]),
        "netlist_gates": netlist.gate_count(),
        "netlist_pis": len(netlist.pis),
        "netlist_pos": len(netlist.pos),
        "mut_faults": len(build_fault_list(
            netlist, region=result["options"].fault_region)),
        "sampled_faults": report.total_faults,
        "frames": PODEM_OPTIONS["max_frames"],
        "backtrack_limit": PODEM_OPTIONS["backtrack_limit"],
    }
    return {"summary": summary, "quality": quality, "sizes": sizes,
            "operations": 1}


# -- seu_campaign ------------------------------------------------------------------


def campaign_spec(seed: int):
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec.from_dict({
        "name": f"perfbench-seu-{seed}",
        "design": "arm2",
        "mode": "factorial",
        "seed": seed,
        "max_trials": SEU_EXECUTED,
        "replicates": SEU_TRIALS // SEU_EXECUTED,
        "factors": {name: list(levels)
                    for name, levels in SEU_FACTORS.items()},
        "base": {"frames": 1, "fault_model": "transient"},
    })


def prepare_seu_campaign(seed: int) -> Dict[str, Any]:
    from repro.campaign.runner import CampaignRunner  # noqa: F401

    return {"spec": campaign_spec(seed), "seed": seed}


def run_seu_campaign(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.campaign.runner import CampaignRunner

    runner = CampaignRunner(inputs["spec"], local=True)
    runner.run()
    return {"runner": runner}


def stored_trial_results(runner) -> Dict[str, Dict[str, Any]]:
    """Executed trials' full result rows, read back from the store.

    The trial DB keeps only coverage percentages; the local campaign path
    memoizes each executed trial's whole result under the ``campaign``
    stage, keyed by its job-spec fingerprint.
    """
    from repro.serve.protocol import JobSpec
    from repro.store import MISS, get_store

    store = get_store()
    results: Dict[str, Dict[str, Any]] = {}
    for row in runner.db.rows():
        if row.get("served_from") != "pipeline":
            continue
        spec = runner.job_spec_dict(row["config"])
        fp = JobSpec.from_dict(dict(spec)).validate().fingerprint()
        payload = store.get("campaign", {"spec": fp})
        if payload is not MISS:
            results[trial_key(row["config"])] = payload[0]
    return results


def outputs_seu_campaign(inputs: Dict[str, Any],
                         result: Dict[str, Any]) -> Dict[str, Any]:
    runner = result["runner"]
    rows = runner.db.rows()
    executed = stored_trial_results(runner)
    trials = [{
        "config": trial_key(row["config"]),
        "served_from": row.get("served_from"),
        "error": row.get("error"),
        "coverage": row.get("coverage"),
        "seu_injections": row.get("seu_injections"),
        "seu_coverage": row.get("seu_coverage"),
    } for row in rows]
    faults = sum(r["faults"] for r in executed.values())
    detected = sum(r["detected"] for r in executed.values())
    injected = sum(r["transient_total"] for r in executed.values())
    seu_detected = sum(r["transient_detected"] for r in executed.values())
    summary = {
        "trials": trials,
        "executed": {key: [r["faults"], r["detected"], r["transient_total"],
                           r["transient_detected"]]
                     for key, r in sorted(executed.items())},
    }
    quality = {
        "fault_coverage_pct": 100.0 * detected / faults if faults else 0.0,
        "seu_coverage_pct": (100.0 * seu_detected / injected
                             if injected else 0.0),
    }
    sizes = {
        "trials": len(rows),
        "executed": len(executed),
        "stuck_faults_graded": faults,
        "seu_injections": injected,
    }
    return {"summary": summary, "quality": quality, "sizes": sizes,
            "operations": len(rows), "executed_results": executed}


# -- factor_extract ----------------------------------------------------------------


def mut_order(seed: int) -> List[Tuple[str, str]]:
    from repro.designs import ARM2_MUTS

    order = [(mut.name, mut.path) for mut in ARM2_MUTS]
    random.Random(seed).shuffle(order)
    return order


def prepare_factor_extract(seed: int) -> Dict[str, Any]:
    from repro.core.factor import Factor  # noqa: F401
    from repro.designs import arm2_source

    return {"source": arm2_source(), "order": mut_order(seed), "seed": seed}


def run_factor_extract(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.extractor import ExtractionMode
    from repro.core.factor import Factor

    analyses = []
    for mode in MODES:
        factor = Factor.from_verilog(inputs["source"], top="arm",
                                     mode=ExtractionMode(mode))
        for module, path in inputs["order"]:
            analyses.append((mode, module,
                             factor.analyze(module, path=path)))
    return {"analyses": analyses}


def outputs_factor_extract(inputs: Dict[str, Any],
                           result: Dict[str, Any]) -> Dict[str, Any]:
    rows = []
    for mode, module, analysis in result["analyses"]:
        tr = analysis.transformed
        rows.append({
            "mode": mode,
            "mut": module,
            "total_gates": tr.total_gates,
            "num_pis": tr.num_pis,
            "num_pos": tr.num_pos,
            "mut_gates": tr.mut_gates,
            "surrounding_gates": tr.surrounding_gates,
            "tasks_run": analysis.extraction.tasks_run,
            "tasks_reused": analysis.extraction.tasks_reused,
            "hard_coded_inputs": analysis.testability.num_hard_coded,
        })
    sizes = {
        "source_chars": len(inputs["source"]),
        "analyses": len(rows),
        "mut_order": [module for module, _path in inputs["order"]],
    }
    return {"summary": {"analyses": rows}, "quality": {}, "sizes": sizes,
            "operations": len(rows)}


PREPARE = {
    "alu_podem": prepare_alu_podem,
    "seu_campaign": prepare_seu_campaign,
    "factor_extract": prepare_factor_extract,
}
RUN = {
    "alu_podem": run_alu_podem,
    "seu_campaign": run_seu_campaign,
    "factor_extract": run_factor_extract,
}
OUTPUTS = {
    "alu_podem": outputs_alu_podem,
    "seu_campaign": outputs_seu_campaign,
    "factor_extract": outputs_factor_extract,
}
