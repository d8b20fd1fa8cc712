"""Output checks, each against a reference the checked code did not produce.

Every check returns a list of problems; an empty list means the outputs
are correct.  ``test_checks.py`` corrupts real outputs and asserts each
check reports them.

- ``alu_podem``: every fault the engine reports as detected must be
  re-detected by the ``interpreted`` fault simulator (the reference
  oracle) over the run's own tests, with each test's initial state and
  the PIER observables.  Detected + untestable + aborted must equal the
  sample size.
- ``seu_campaign``: every trial succeeds, replicates agree, and each
  executed trial's stuck-at and SEU detection counts equal those of the
  same job spec run with ``backend: interpreted``.
- ``factor_extract``: per-MUT transformed gate, PI, PO and surrounding
  gate counts equal the values recorded below, and composition keeps no more surrounding
  logic than conventional extraction (the paper's Table 2/3 claim).
- every workload: repeat runs of one seed agree on every count.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Transformed-module (gates, PIs, POs, surrounding gates) per (mode, MUT)
#: on arm2.  Fixed by the design and the extraction rules, not by the
#: seed or the MUT order.  PIs, POs and surrounding gates are the ones
#: committed in benchmarks/results/table2.txt and table3.txt.
EXPECTED_FACTOR = {
    ("compose", "arm_alu"): (3142, 93, 74, 2274),
    ("compose", "regfile_struct"): (3142, 93, 74, 2013),
    ("compose", "exc"): (2912, 61, 17, 2817),
    ("compose", "forward"): (3142, 93, 74, 3124),
    ("conventional", "arm_alu"): (4093, 114, 145, 3225),
    ("conventional", "regfile_struct"): (4093, 114, 145, 2964),
    ("conventional", "exc"): (4093, 114, 145, 3998),
    ("conventional", "forward"): (4093, 114, 145, 4075),
}


# -- alu_podem -----------------------------------------------------------------


def pier_observables(netlist, pier_qs: Iterable[int]) -> List[int]:
    """D inputs of the PIER flops: the nets a store instruction reads out."""
    pier_qs = set(pier_qs)
    return sorted(dff.inputs[0] for dff in netlist.dffs()
                  if dff.output in pier_qs)


def undetected_by_oracle(netlist, tests: Sequence, faults: Iterable,
                         pier_qs: Iterable[int]) -> List:
    """Faults in ``faults`` that no test detects in the interpreted
    simulator; ``tests`` are the engine's ``(vectors, initial_state)``."""
    from repro.atpg.fault_sim import FaultSimulator

    fsim = FaultSimulator(netlist, backend="interpreted")
    observe = pier_observables(netlist, pier_qs) or None
    remaining = set(faults)
    for vectors, initial_state in tests:
        if not remaining:
            break
        remaining -= fsim.detected_faults(
            vectors, sorted(remaining), initial_state=initial_state or None,
            extra_observables=observe)
    return sorted(remaining)


def check_alu_podem(netlist, options, engine, report,
                    sample: int) -> List[str]:
    problems = []
    classified = report.detected + report.untestable + report.aborted
    if report.total_faults != sample:
        problems.append(f"{report.total_faults} faults targeted, "
                        f"expected a sample of {sample}")
    if classified != report.total_faults:
        problems.append(f"detected {report.detected} + untestable "
                        f"{report.untestable} + aborted {report.aborted} "
                        f"!= {report.total_faults} faults")
    if len(engine.detected_faults) != report.detected:
        problems.append(f"report says {report.detected} detected, engine "
                        f"holds {len(engine.detected_faults)}")
    missed = undetected_by_oracle(netlist, engine.tests,
                                  engine.detected_faults, options.pier_qs)
    if missed:
        problems.append(
            f"{len(missed)} faults reported detected are not detected by "
            f"the interpreted simulator, e.g. "
            f"{missed[0].describe(netlist)}")
    return problems


# -- seu_campaign --------------------------------------------------------------


def interpreted_trial_results(runner, configs: Sequence[Dict[str, Any]]
                              ) -> Dict[str, Dict[str, Any]]:
    """Run each config's job spec again with the interpreted backend."""
    from repro.serve.worker import execute_job

    results = {}
    for config in configs:
        spec = dict(runner.job_spec_dict(config), backend="interpreted")
        outcome = execute_job(spec, fresh_registry=False)
        results[trial_key(config)] = (outcome["result"] if outcome["ok"]
                                      else {"error": outcome["error"]})
    return results


def trial_key(config: Mapping[str, Any]) -> str:
    """One trial's factor configuration as a canonical string."""
    return json.dumps(dict(config), sort_keys=True)


_SEU_COUNTS = ("faults", "detected", "transient_total", "transient_detected")


def check_seu_campaign(trials: Sequence[Mapping[str, Any]],
                       executed: Mapping[str, Mapping[str, Any]],
                       oracle: Optional[Mapping[str, Mapping[str, Any]]],
                       expected_trials: int,
                       expected_executed: int) -> List[str]:
    """``oracle`` holds the interpreted results per executed config; with
    ``None`` the comparison against it is skipped."""
    problems = []
    if len(trials) != expected_trials:
        problems.append(f"{len(trials)} trials, expected {expected_trials}")
    for trial in trials:
        if trial["error"]:
            problems.append(f"trial {trial['config']} failed: "
                            f"{trial['error']}")
    by_config: Dict[str, set] = {}
    for trial in trials:
        by_config.setdefault(trial["config"], set()).add(
            (trial["coverage"], trial["seu_injections"],
             trial["seu_coverage"]))
    for config, outcomes in sorted(by_config.items()):
        if len(outcomes) > 1:
            problems.append(f"replicates of {config} disagree: "
                            f"{sorted(outcomes, key=repr)}")
    if len(executed) != expected_executed:
        problems.append(f"{len(executed)} trials executed, expected "
                        f"{expected_executed}")
    for config, result in sorted(executed.items()):
        if oracle is None:
            break
        reference = oracle.get(config)
        if reference is None:
            problems.append(f"no interpreted reference for {config}")
            continue
        if "error" in reference:
            problems.append(f"interpreted reference for {config} failed: "
                            f"{reference['error']}")
            continue
        for name in _SEU_COUNTS:
            if result[name] != reference[name]:
                problems.append(f"{config}: {name} {result[name]} != "
                                f"interpreted {reference[name]}")
    return problems


# -- factor_extract --------------------------------------------------------------


def check_factor_extract(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    problems = []
    seen = {(row["mode"], row["mut"]): row for row in rows}
    if sorted(seen) != sorted(EXPECTED_FACTOR) or len(rows) != len(seen):
        problems.append(f"analysed {sorted(seen)}, expected each of "
                        f"{sorted(EXPECTED_FACTOR)} once")
    for key, expected in sorted(EXPECTED_FACTOR.items()):
        row = seen.get(key)
        if row is None:
            continue
        got = (row["total_gates"], row["num_pis"], row["num_pos"],
               row["surrounding_gates"])
        if got != expected:
            problems.append(f"{key[0]} {key[1]}: (gates, PIs, POs, "
                            f"surrounding gates) {got}, expected {expected}")
    for mut in sorted({mut for _mode, mut in EXPECTED_FACTOR}):
        composed = seen.get(("compose", mut))
        conventional = seen.get(("conventional", mut))
        if composed and conventional and (
                composed["surrounding_gates"]
                > conventional["surrounding_gates"]):
            problems.append(
                f"{mut}: composition keeps {composed['surrounding_gates']} "
                f"surrounding gates, conventional only "
                f"{conventional['surrounding_gates']}")
    return problems


# -- every workload ----------------------------------------------------------------


def disagreements(summaries: Sequence[Mapping[str, Any]]) -> List[str]:
    """Repeat runs of one seed must produce identical summaries."""
    if not summaries:
        return []
    first = json.dumps(summaries[0], sort_keys=True)
    return [f"run {i + 1} differs from run 1: "
            f"{json.dumps(summary, sort_keys=True)[:200]} vs {first[:200]}"
            for i, summary in enumerate(summaries)
            if json.dumps(summary, sort_keys=True) != first]
