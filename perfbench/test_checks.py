"""Self-tests of the benchmark: every output check rejects corrupted outputs.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import checks
import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


# -- alu_podem -------------------------------------------------------------------


@pytest.fixture
def alu_run(store, monkeypatch):
    sample = 12
    monkeypatch.setitem(workloads.PODEM_OPTIONS, "fault_sample", sample)
    result = workloads.run_alu_podem(workloads.prepare_alu_podem(2002))
    assert result["report"].detected > 0
    return result, sample


def _check_alu(result, sample):
    return checks.check_alu_podem(result["netlist"], result["options"],
                                  result["engine"], result["report"], sample)


def test_alu_podem_check_accepts_real_outputs(alu_run):
    assert _check_alu(*alu_run) == []


def test_alu_podem_check_rejects_detections_the_tests_do_not_make(alu_run):
    result, sample = alu_run
    result["engine"].tests = [(vectors[:0], state)
                              for vectors, state in result["engine"].tests]
    problems = _check_alu(result, sample)
    assert any("interpreted simulator" in p for p in problems)


def test_alu_podem_check_rejects_a_lost_fault(alu_run):
    result, sample = alu_run
    result["report"].aborted -= 1
    assert any("!=" in p for p in _check_alu(result, sample))


# -- seu_campaign ------------------------------------------------------------------


@pytest.fixture
def seu_run(store, monkeypatch):
    monkeypatch.setattr(workloads, "SEU_FACTORS", {
        "mut": ["forward", "exc"],
        "random_length": [4, 8],
        "transient_sample": [8, 16],
    })
    inputs = workloads.prepare_seu_campaign(2002)
    result = workloads.run_seu_campaign(inputs)
    out = workloads.outputs_seu_campaign(inputs, result)
    executed = out["executed_results"]
    oracle = checks.interpreted_trial_results(
        result["runner"], [json.loads(key) for key in executed])
    return out["summary"]["trials"], executed, oracle


def test_seu_campaign_check_accepts_real_outputs(seu_run):
    trials, executed, oracle = seu_run
    assert checks.check_seu_campaign(trials, executed, oracle, 8, 4) == []


def test_seu_campaign_check_rejects_a_wrong_seu_count(seu_run):
    trials, executed, oracle = seu_run
    executed = copy.deepcopy(executed)
    first = sorted(executed)[0]
    executed[first]["transient_detected"] += 1
    problems = checks.check_seu_campaign(trials, executed, oracle, 8, 4)
    assert any("transient_detected" in p for p in problems)


def test_seu_campaign_check_rejects_failed_or_disagreeing_trials(seu_run):
    trials, executed, oracle = seu_run
    failed = copy.deepcopy(trials)
    failed[0]["error"] = "RuntimeError: boom"
    assert checks.check_seu_campaign(failed, executed, oracle, 8, 4)
    split = copy.deepcopy(trials)
    split[1]["seu_coverage"] = -1.0
    problems = checks.check_seu_campaign(split, executed, oracle, 8, 4)
    assert any("replicates" in p for p in problems)


# -- factor_extract ----------------------------------------------------------------


def _factor_rows():
    return [{"mode": mode, "mut": mut, "total_gates": gates, "num_pis": pis,
             "num_pos": pos, "surrounding_gates": surrounding}
            for (mode, mut), (gates, pis, pos, surrounding)
            in checks.EXPECTED_FACTOR.items()]


def test_factor_extract_check_accepts_expected_rows():
    assert checks.check_factor_extract(_factor_rows()) == []


def test_factor_extract_check_rejects_a_wrong_gate_count():
    rows = _factor_rows()
    rows[0]["total_gates"] += 1
    assert checks.check_factor_extract(rows)


def test_factor_extract_check_rejects_composition_keeping_more_logic():
    rows = _factor_rows()
    for row in rows:
        if (row["mode"], row["mut"]) == ("compose", "exc"):
            row["surrounding_gates"] = 5000
    problems = checks.check_factor_extract(rows)
    assert any("composition keeps" in p for p in problems)


def test_factor_extract_check_rejects_a_missing_analysis():
    assert checks.check_factor_extract(_factor_rows()[1:])


# -- every workload ----------------------------------------------------------------


def test_repeat_runs_must_agree():
    summary = {"faults": 120, "detected": 60}
    assert checks.disagreements([summary, dict(summary)]) == []
    assert checks.disagreements([summary, dict(summary, detected=59)])


def test_self_time_subtracts_children():
    log = layers.SpanLog()
    log.spans = [
        {"name": name, "start": start, "end": end, "attrs": {}}
        for name, start, end in (("run", -10.0, 0.0),
                                 ("AtpgEngine.run", -9.0, -4.0),
                                 ("SequentialAtpg.generate", -8.0, -7.0),
                                 ("FaultSimulator.detected_faults",
                                  -6.0, -5.0))]
    nodes = layers.merged_spans(log, log.spans[0])
    self_s = {node["name"]: node["self"] for node in nodes}
    assert self_s == {"run": 5.0, "AtpgEngine.run": 3.0,
                      "SequentialAtpg.generate": 1.0,
                      "FaultSimulator.detected_faults": 1.0}


def test_benchmark_json_lists_every_metric_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    emitted = set(layers.layer_metrics([], 1.0, {}, "alu_podem"))
    emitted |= {"trace.overhead_pct", "fault_coverage_pct",
                "atpg_efficiency_pct", "seu_coverage_pct", "test_vectors"}
    assert {m["name"] for m in bench["per_layer"]} == emitted
    assert {m["name"] for m in bench["end_to_end"]} == {
        "run_s", "cpu_s", "peak_rss_mb", "setup_s"}
