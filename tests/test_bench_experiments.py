"""Tests for the benchmark experiment driver (fast pieces only — the ATPG
tables are exercised by benchmarks/)."""

import pytest

from repro.bench.experiments import (
    Arm2Experiments,
    bench_scale,
    default_atpg_options,
)
from repro.obs import get_registry


@pytest.fixture(scope="module")
def exp():
    return Arm2Experiments()


class TestOptions:
    def test_default_options_consistent(self):
        opts = default_atpg_options()
        assert opts.max_frames == 4
        assert opts.schedule()[-1] == 4

    def test_overrides(self):
        opts = default_atpg_options(fault_region="x.", fault_sample=5)
        assert opts.fault_region == "x."
        assert opts.fault_sample == 5

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "paper"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert bench_scale() == "smoke"


class TestStructuralTables:
    def test_table1_columns(self, exp):
        rows = exp.table1_rows()
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "module", "hier_level", "PI", "PO", "gates_in_module",
                "gates_in_surrounding", "stuck_at_faults",
            }

    def test_table2_and_3_consistency(self, exp):
        t2 = {r["module"]: r for r in exp.table2_rows()}
        t3 = {r["module"]: r for r in exp.table3_rows()}
        assert set(t2) == set(t3)
        for name in t2:
            # Composition keeps no more surrounding logic.
            assert (t3[name]["gates_in_surrounding"]
                    <= t2[name]["gates_in_surrounding"])
            assert 0 < t3[name]["gate_reduction_%"] <= 100

    def test_standalone_netlists_cached(self, exp):
        mut = exp.muts()[0]
        assert exp.standalone_netlist(mut) is exp.standalone_netlist(mut)

    def test_testability_rows(self, exp):
        rows = exp.testability_rows()
        by = {r["module"]: r for r in rows}
        assert by["arm_alu"]["hard_coded_inputs"] == 13

    def test_ablation_deadcode(self, exp):
        rows = exp.ablation_deadcode_rows()
        by = {r["config"]: r for r in rows}
        assert by["optimized"]["total_gates"] < by["raw"]["total_gates"]

    def test_ablation_reuse(self, exp):
        rows = exp.ablation_reuse_rows()
        by = {r["config"]: r for r in rows}
        assert by["reuse"]["tasks_run"] < by["no_reuse"]["tasks_run"]


class TestReportFanOut:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_prefetch_reports_serial_equals_pool(self, exp, monkeypatch,
                                                 jobs):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", jobs)
        keys = [("standalone", "forward"), ("standalone", "exc")]
        for key in keys:
            exp._atpg_cache.pop(key, None)
        get_registry().reset()
        exp.prefetch_reports(keys)
        reports = [exp._atpg_cache[key] for key in keys]
        assert [(r.detected, r.untestable, r.aborted, r.num_vectors)
                for r in reports] == [(36, 0, 0, 52), (143, 19, 13, 68)]
        snapshot = get_registry().snapshot("atpg.")
        assert snapshot["atpg.implications"]["value"] == 64091
        assert snapshot["atpg.backtracks"]["value"] == 2434
