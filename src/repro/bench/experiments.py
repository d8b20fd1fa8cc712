"""Shared experiment driver for the Table 1-6 reproductions.

All benchmarks and examples reproduce the paper's evaluation on the ARM-2
substitute design.  One ``Arm2Experiments`` instance is shared per process
(the full-chip netlist and both extraction composers are expensive), and all
ATPG runs use identical engine options so the comparisons are fair.

Environment knobs:

- ``REPRO_BENCH_SCALE=smoke``  — tiny fault samples / budgets for CI smoke
  runs (default is ``paper``: the full evaluation),
- ``REPRO_BENCH_SEED``        — RNG seed for the ATPG random phase,
- ``REPRO_JOBS``              — worker-process count for the Table 4-6 ATPG
  fan-out (default: ``os.cpu_count()``; ``1`` forces serial).

The per-MUT ATPG reports are independent and seeded, so fanning them out
with :func:`repro.jobs.map_runs` returns bit-identical rows to a serial
run; the workers' metrics are merged back into the parent registry so
benchmark ``RunRecord`` payloads stay complete.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atpg.engine import AtpgEngine, AtpgOptions, AtpgReport
from repro.core.composer import ConstraintComposer
from repro.core.extractor import ExtractionMode, MutSpec
from repro.core.piers import find_piers, pier_q_nets
from repro.core.testability import analyze_testability
from repro.core.transform import TransformedModule
from repro.designs.arm2 import ARM2_MUTS, MutInfo, arm2_design
from repro.hierarchy.design import Design
from repro.jobs import map_runs
from repro.store import synthesize_cached
from repro.synth.stats import netlist_stats


def bench_scale() -> str:
    """Current evaluation scale: "paper" (full) or "smoke" (CI-sized)."""
    return os.environ.get("REPRO_BENCH_SCALE", "paper")


_scale = bench_scale


def _seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "2002"))


def default_atpg_options(**overrides) -> AtpgOptions:
    """The engine configuration shared by every Table 4-6 run."""
    smoke = _scale() == "smoke"
    base = dict(
        max_frames=4,
        frame_schedule=(2, 4),
        backtrack_limit=100 if smoke else 200,
        fault_time_limit=0.25 if smoke else 0.4,
        # High safety ceiling: every fault gets its per-fault budget; the
        # paper-shape comparisons need complete (not time-truncated) runs.
        total_time_limit=60.0 if smoke else 900.0,
        random_sequences=4 if smoke else 8,
        random_sequence_length=16 if smoke else 24,
        seed=_seed(),
    )
    base.update(overrides)
    return AtpgOptions(**base)


def processor_level_fault_sample() -> int:
    """Chip-level raw ATPG is intractable fault-by-fault in pure Python;
    Table 4 estimates coverage on a uniform fault sample (documented in
    EXPERIMENTS.md)."""
    return 60 if _scale() == "smoke" else 200


class Arm2Experiments:
    """Computes the rows of every paper table for the ARM-2 substitute."""

    def __init__(self) -> None:
        self.design: Design = arm2_design()
        self.full_netlist = synthesize_cached(self.design)
        self.composers: Dict[ExtractionMode, ConstraintComposer] = {
            ExtractionMode.COMPOSE: ConstraintComposer(
                self.design, ExtractionMode.COMPOSE
            ),
            ExtractionMode.CONVENTIONAL: ConstraintComposer(
                self.design, ExtractionMode.CONVENTIONAL
            ),
        }
        self.piers = find_piers(self.design)
        self._standalone_cache: Dict[str, object] = {}
        self._atpg_cache: Dict[Tuple, AtpgReport] = {}

    # -- shared pieces -----------------------------------------------------

    def muts(self) -> List[MutInfo]:
        return list(ARM2_MUTS)

    def standalone_netlist(self, mut: MutInfo):
        if mut.name not in self._standalone_cache:
            self._standalone_cache[mut.name] = synthesize_cached(
                self.design, root=mut.name
            )
        return self._standalone_cache[mut.name]

    def transformed(self, mut: MutInfo,
                    mode: ExtractionMode) -> TransformedModule:
        return self.composers[mode].transform(
            MutSpec(module=mut.name, path=mut.path)
        )

    # -- Table 1: module characteristics -------------------------------------

    def table1_rows(self) -> List[Dict[str, object]]:
        rows = []
        for mut in self.muts():
            module_nl = self.standalone_netlist(mut)
            stats = netlist_stats(module_nl)
            surrounding = self.full_netlist.gate_count() - stats.num_gates
            rows.append({
                "module": mut.name,
                "hier_level": mut.level,
                "PI": stats.num_pis,
                "PO": stats.num_pos,
                "gates_in_module": stats.num_gates,
                "gates_in_surrounding": surrounding,
                "stuck_at_faults": stats.num_faults,
            })
        return rows

    # -- Tables 2 and 3: transformed-module construction ----------------------

    def transform_rows(self, mode: ExtractionMode) -> List[Dict[str, object]]:
        rows = []
        for mut in self.muts():
            tr = self.transformed(mut, mode)
            full_surrounding = self.full_netlist.gate_count() - tr.mut_gates
            reduction = 100.0 * (
                1.0 - tr.surrounding_gates / full_surrounding
            )
            rows.append({
                "module": mut.name,
                "extraction_s": round(tr.extraction_seconds, 4),
                "synthesis_s": round(tr.synthesis_seconds, 4),
                "gates_in_surrounding": tr.surrounding_gates,
                "gate_reduction_%": round(reduction, 1),
                "PI": tr.num_pis,
                "PO": tr.num_pos,
            })
        return rows

    def table2_rows(self) -> List[Dict[str, object]]:
        return self.transform_rows(ExtractionMode.CONVENTIONAL)

    def table3_rows(self) -> List[Dict[str, object]]:
        return self.transform_rows(ExtractionMode.COMPOSE)

    # -- parallel ATPG fan-out ---------------------------------------------

    def compute_report(self, key: Tuple) -> AtpgReport:
        """Compute (and cache) the ATPG report named by a cache key."""
        mut = next(m for m in self.muts() if m.name == key[1])
        if key[0] == "proc":
            return self.processor_level_report(mut)
        if key[0] == "standalone":
            return self.standalone_report(mut)
        if key[0] == "transformed":
            return self.transformed_report(mut, ExtractionMode(key[2]),
                                           use_piers=key[3])
        raise KeyError(f"unknown report key {key!r}")

    def prefetch_reports(self, keys: Sequence[Tuple]) -> None:
        """Fill the ATPG report cache, fanning the misses out over worker
        processes (``REPRO_JOBS``, else all cores)."""
        missing = [k for k in keys if k not in self._atpg_cache]
        for key, report in zip(missing,
                               map_runs(self.compute_report, missing)):
            self._atpg_cache[key] = report

    # -- Table 4: raw test generation ------------------------------------------

    def processor_level_report(self, mut: MutInfo) -> AtpgReport:
        key = ("proc", mut.name)
        if key not in self._atpg_cache:
            opts = default_atpg_options(
                fault_region=mut.path,
                fault_sample=processor_level_fault_sample(),
            )
            self._atpg_cache[key] = AtpgEngine(self.full_netlist, opts).run()
        return self._atpg_cache[key]

    def standalone_report(self, mut: MutInfo) -> AtpgReport:
        key = ("standalone", mut.name)
        if key not in self._atpg_cache:
            opts = default_atpg_options()
            self._atpg_cache[key] = AtpgEngine(
                self.standalone_netlist(mut), opts
            ).run()
        return self._atpg_cache[key]

    def table4_rows(self) -> List[Dict[str, object]]:
        self.prefetch_reports(
            [("proc", m.name) for m in self.muts()]
            + [("standalone", m.name) for m in self.muts()])
        rows = []
        for mut in self.muts():
            proc = self.processor_level_report(mut)
            alone = self.standalone_report(mut)
            rows.append({
                "module": mut.name,
                "proc_lvl_cov_%": round(proc.coverage_percent, 2),
                "proc_lvl_time_s": round(proc.total_seconds, 2),
                "proc_sampled_faults": proc.total_faults,
                "standalone_cov_%": round(alone.coverage_percent, 2),
                "standalone_time_s": round(alone.total_seconds, 2),
            })
        return rows

    # -- Tables 5 and 6: transformed-module test generation ----------------------

    def transformed_report(self, mut: MutInfo, mode: ExtractionMode,
                           use_piers: bool = True) -> AtpgReport:
        key = ("transformed", mut.name, mode.value, use_piers)
        if key not in self._atpg_cache:
            tr = self.transformed(mut, mode)
            pier_nets = (
                frozenset(pier_q_nets(tr.netlist, self.design, self.piers))
                if use_piers else frozenset()
            )
            opts = default_atpg_options(
                fault_region=mut.path,
                pier_qs=pier_nets,
            )
            self._atpg_cache[key] = AtpgEngine(tr.netlist, opts).run()
        return self._atpg_cache[key]

    def atpg_rows(self, mode: ExtractionMode) -> List[Dict[str, object]]:
        self.prefetch_reports(
            [("transformed", m.name, mode.value, True) for m in self.muts()])
        rows = []
        for mut in self.muts():
            tr = self.transformed(mut, mode)
            report = self.transformed_report(mut, mode)
            total_time = (
                tr.extraction_seconds + tr.synthesis_seconds
                + report.total_seconds
            )
            rows.append({
                "module": mut.name,
                "fault_cov_%": round(report.coverage_percent, 2),
                "atpg_eff_%": round(report.efficiency_percent, 2),
                "test_gen_s": round(report.test_gen_seconds, 2),
                "total_s": round(total_time, 2),
                "faults": report.total_faults,
                "vectors": report.num_vectors,
            })
        return rows

    def table5_rows(self) -> List[Dict[str, object]]:
        return self.atpg_rows(ExtractionMode.CONVENTIONAL)

    def table6_rows(self) -> List[Dict[str, object]]:
        return self.atpg_rows(ExtractionMode.COMPOSE)

    # -- Section 4.2: testability analysis ----------------------------------------

    def testability_rows(self) -> List[Dict[str, object]]:
        rows = []
        for mut in self.muts():
            extraction = self.composers[ExtractionMode.COMPOSE].extract(
                MutSpec(module=mut.name, path=mut.path)
            )
            report = analyze_testability(self.design, extraction)
            rows.append({
                "module": mut.name,
                "input_ports": report.total_input_ports,
                "hard_coded_inputs": report.num_hard_coded,
                "empty_chain_warnings": sum(
                    1 for w in report.warnings
                    if w.kind in ("no_driver", "no_propagation")
                ),
                "selectors": ",".join(sorted({
                    s for hc in report.hard_coded_ports for s in hc.selectors
                })) or "-",
            })
        return rows

    # -- ablations -------------------------------------------------------------

    def ablation_reuse_rows(self) -> List[Dict[str, object]]:
        """Extraction with and without the cross-MUT task cache."""
        rows = []
        # Cold composer: fresh cache per MUT (no reuse).
        for label, shared in (("no_reuse", False), ("reuse", True)):
            composer = ConstraintComposer(self.design, ExtractionMode.COMPOSE)
            total = 0.0
            tasks = 0
            reused = 0
            for mut in self.muts():
                if not shared:
                    composer = ConstraintComposer(
                        self.design, ExtractionMode.COMPOSE
                    )
                result = composer.extractor.extract(
                    MutSpec(module=mut.name, path=mut.path)
                )
                total += result.extraction_seconds
                tasks += result.tasks_run
                reused += result.tasks_reused
            rows.append({
                "config": label,
                "total_extraction_s": round(total, 4),
                "tasks_run": tasks,
                "tasks_reused": reused,
            })
        return rows

    def ablation_pier_rows(self) -> List[Dict[str, object]]:
        """Transformed-module ATPG with PIERs enabled vs disabled."""
        rows = []
        mut = next(m for m in self.muts() if m.name == "regfile_struct")
        self.prefetch_reports([
            ("transformed", mut.name, ExtractionMode.COMPOSE.value, use)
            for use in (True, False)
        ])
        for label, use in (("piers_on", True), ("piers_off", False)):
            report = self.transformed_report(
                mut, ExtractionMode.COMPOSE, use_piers=use
            )
            rows.append({
                "config": label,
                "module": mut.name,
                "fault_cov_%": round(report.coverage_percent, 2),
                "atpg_eff_%": round(report.efficiency_percent, 2),
                "test_gen_s": round(report.test_gen_seconds, 2),
            })
        return rows

    def ablation_deadcode_rows(self) -> List[Dict[str, object]]:
        """Constraint synthesis with and without optimization (the paper
        leans on synthesis to delete redundant constraint logic)."""
        rows = []
        mut = self.muts()[0]
        spec = MutSpec(module=mut.name, path=mut.path)
        for label, do_opt in (("optimized", True), ("raw", False)):
            composer = ConstraintComposer(self.design, ExtractionMode.COMPOSE)
            tr = composer.transform(spec, do_optimize=do_opt)
            rows.append({
                "config": label,
                "module": mut.name,
                "total_gates": tr.netlist.gate_count(include_buffers=True),
                "dffs": len(tr.netlist.dffs()),
            })
        return rows


_SHARED: Optional[Arm2Experiments] = None


def get_experiments() -> Arm2Experiments:
    """Process-wide shared experiment state."""
    global _SHARED
    if _SHARED is None:
        _SHARED = Arm2Experiments()
    return _SHARED
