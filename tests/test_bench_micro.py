"""Tests for the ``repro bench`` microbenchmark harness."""

import json
import time

import pytest

from repro.atpg.engine import AtpgOptions
from repro.bench.serve import progress_overhead
from repro.cli import main
from repro.core.factor import Factor
from repro.designs import arm2_source
from repro.jobs import resolve_jobs
from repro.obs.metrics import MetricsRegistry


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument wins over the env


def test_resolve_jobs_nonpositive_means_all_cores(monkeypatch):
    import repro.jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(repro.jobs.os, "cpu_count", lambda: 6)
    assert resolve_jobs(0) == 6
    assert resolve_jobs(-1) == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs() == 6
    monkeypatch.setattr(repro.jobs.os, "cpu_count", lambda: None)
    assert resolve_jobs(0) == 1  # cpu_count unknown -> floor of one


def test_merge_snapshot_folds_worker_delta():
    worker = MetricsRegistry()
    worker.counter("jobs").inc(4)
    worker.gauge("depth").set(7)
    worker.histogram("secs").observe(0.5)
    worker.histogram("secs").observe(3.0)

    parent = MetricsRegistry()
    parent.counter("jobs").inc(1)
    parent.histogram("secs").observe(8.0)
    parent.merge_snapshot(worker.snapshot())

    snap = parent.snapshot()
    assert snap["jobs"]["value"] == 5
    assert snap["depth"]["value"] == 7
    assert snap["secs"]["count"] == 3
    assert snap["secs"]["sum"] == 11.5
    assert snap["secs"]["min"] == 0.5
    assert snap["secs"]["max"] == 8.0
    assert sum(snap["secs"]["buckets"].values()) == 3


def test_merge_snapshot_rejects_unknown_type():
    registry = MetricsRegistry()
    try:
        registry.merge_snapshot({"weird": {"type": "sparkline", "value": 1}})
    except ValueError as err:
        assert "sparkline" in str(err)
    else:  # pragma: no cover - the merge must raise
        raise AssertionError("unknown metric type was accepted")


def test_cli_bench_quick_writes_payloads(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["bench", "--quick", "--jobs", "1", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Fault simulation" in captured
    assert "ATPG backend equivalence" in captured
    assert sorted(path.name for path in out.iterdir()) == [
        "BENCH_atpg.json", "BENCH_fault_sim.json"]
    for key in ("fault_sim", "atpg"):
        payload = json.loads((out / f"BENCH_{key}.json").read_text())
        assert payload["scale"] == "quick"
        assert payload["seed"] == 9
        assert "jobs" not in payload  # no pool ran
        assert payload["rows"], key
        assert all(row["match"] for row in payload["rows"])
        assert payload["record"]["label"] == f"bench.{key}"
        assert "metrics" in payload["record"]


def test_default_suites_ignore_worker_count(tmp_path, monkeypatch, capsys):
    """Only the serve suite sizes a pool, so a bad ``REPRO_JOBS`` cannot
    stop the default fault_sim and atpg suites."""
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert main(["bench", "--quick", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "BENCH_atpg.json", "BENCH_fault_sim.json"]


@pytest.mark.parametrize("suite", ["warm_pipeline", "campaign"])
def test_retired_suites_rejected(suite, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", suite, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _spin_1ms(_payload):
    end = time.process_time() + 0.001
    while time.process_time() < end:
        pass


def test_progress_overhead_gate_charges_the_reporter(monkeypatch):
    """The serve suite's progress_overhead gate times the reporter's own
    emits: 1 ms of work per event fails it, a plain append passes."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # every run executes
    factor = Factor.from_verilog(arm2_source(), top="arm")
    analyzed = factor.analyze("exc")
    # A short random phase leaves PODEM more faults, hence more events.
    options = AtpgOptions(max_frames=1, backtrack_limit=10, seed=2002,
                          random_sequences=2, random_sequence_length=4)

    def run():
        return factor.generate_tests(analyzed, options)

    events = []
    match, text = progress_overhead(run, 1, events.append)
    assert match, text
    assert events
    match, text = progress_overhead(run, 1, _spin_1ms)
    assert not match, text
