"""The ``Factor`` facade: the public API of the reproduction.

Typical use::

    from repro import Factor
    from repro.designs import arm2_source

    factor = Factor.from_verilog(arm2_source(), top="arm")
    result = factor.analyze("arm_alu", path="u_core.u_dp.u_alu.")
    print(result.testability.summary())
    result.write_constraints("constraints/")
    report = factor.generate_tests(result)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.atpg.engine import AtpgEngine, AtpgOptions, AtpgReport
from repro.core.composer import ConstraintComposer
from repro.core.extractor import ExtractionMode, ExtractionResult, MutSpec
from repro.core.piers import PierInfo, find_piers, pier_q_nets
from repro.core.testability import TestabilityReport, analyze_testability
from repro.core.transform import TransformedModule
from repro.hierarchy.design import Design
from repro.obs import RunRecord, counter, get_logger, span
from repro.store import (
    MISS,
    atpg_options_fingerprint,
    get_store,
    netlist_fingerprint,
    parse_verilog_cached,
)
from repro.verilog.writer import write_module

_log = get_logger("factor")


@dataclass
class FactorResult:
    """Everything FACTOR produces for one module under test."""

    mut: MutSpec
    extraction: ExtractionResult
    transformed: TransformedModule
    testability: TestabilityReport
    piers: List[PierInfo] = field(default_factory=list)
    pier_nets: Set[int] = field(default_factory=set)
    record: Optional[RunRecord] = field(default=None, repr=False)

    def write_constraints(self, directory: str) -> List[str]:
        """Write the pruned constraint netlists, one file per module.

        Mirrors the paper's tool, which "retains the original directory
        structure" — each module goes to ``<dir>/<module>.v``.
        """
        os.makedirs(directory, exist_ok=True)
        written: List[str] = []
        for module in self.transformed.source.modules:
            path = os.path.join(directory, f"{module.name}.v")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(write_module(module))
            written.append(path)
        return written


class Factor:
    """FunctionAl ConsTraint extractOR over one design."""

    def __init__(self, design: Design,
                 mode: ExtractionMode = ExtractionMode.COMPOSE):
        self.design = design
        self.mode = mode
        self.composer = ConstraintComposer(design, mode)
        self._piers: Optional[List[PierInfo]] = None

    @classmethod
    def from_verilog(cls, source_text: str, top: Optional[str] = None,
                     mode: ExtractionMode = ExtractionMode.COMPOSE
                     ) -> "Factor":
        return cls(Design(parse_verilog_cached(source_text), top=top),
                   mode=mode)

    @classmethod
    def from_files(cls, paths: Sequence[str], top: Optional[str] = None,
                   mode: ExtractionMode = ExtractionMode.COMPOSE,
                   defines: Optional[Dict[str, str]] = None,
                   include_dirs: Sequence[str] = ()) -> "Factor":
        from repro.verilog.preprocess import Preprocessor

        pp = Preprocessor(defines=defines, include_dirs=include_dirs)
        chunks = [pp.process_file(path) for path in paths]
        return cls.from_verilog("\n".join(chunks), top=top, mode=mode)

    # -- analysis ------------------------------------------------------------

    def mut_spec(self, module: str, path: Optional[str] = None) -> MutSpec:
        """Resolve a MUT by module name; infer the instance path if unique."""
        if path is None:
            candidates = self.design.paths_to(module)
            if not candidates:
                raise ValueError(f"module {module!r} not found under top")
            if len(candidates) > 1:
                raise ValueError(
                    f"module {module!r} has {len(candidates)} instances; "
                    "pass path= explicitly"
                )
            path = "".join(f"{inst}." for inst in candidates[0].insts)
        return MutSpec(module=module, path=path)

    def piers(self) -> List[PierInfo]:
        if self._piers is None:
            self._piers = find_piers(self.design)
        return self._piers

    def analyze(self, module: str, path: Optional[str] = None,
                use_piers: bool = True) -> FactorResult:
        """Extract constraints, build the transformed module, analyze
        testability and identify PIERs for one MUT."""
        mut = self.mut_spec(module, path)
        with span("analyze", mut=mut.path, module=module) as sp:
            extraction = self.composer.extract(mut)
            transformed = self.composer.transform(mut)
            with span("testability"):
                testability = analyze_testability(self.design, extraction)
            with span("piers"):
                piers = self.piers() if use_piers else []
                pier_nets = (
                    pier_q_nets(transformed.netlist, self.design, piers)
                    if use_piers else set()
                )
        _log.info("analyze_done", mut=mut.path,
                  tasks_run=extraction.tasks_run,
                  tasks_reused=extraction.tasks_reused,
                  gates=transformed.total_gates)
        return FactorResult(
            mut=mut,
            extraction=extraction,
            transformed=transformed,
            testability=testability,
            piers=piers,
            pier_nets=pier_nets,
            record=RunRecord.capture(f"analyze:{mut.path}", spans=[sp]),
        )

    # -- test generation --------------------------------------------------------

    def generate_tests(self, result: FactorResult,
                       options: Optional[AtpgOptions] = None) -> AtpgReport:
        """Run the ATPG substrate on the transformed module, targeting only
        the MUT's faults, with PIERs as pseudo PI/PO.

        The finished report is memoized in the persistent artifact store
        keyed by the netlist content fingerprint and the fully resolved
        engine options: ATPG is deterministic given both, so a warm run
        returns the stored report (including the timing fields of the run
        that computed it) without re-running PODEM or fault simulation.
        """
        opts = options or AtpgOptions()
        opts.fault_region = result.transformed.mut_region
        if result.pier_nets:
            opts.pier_qs = frozenset(result.pier_nets)
        store = get_store()
        store_key = {
            "netlist": netlist_fingerprint(result.transformed.netlist),
            "options": atpg_options_fingerprint(opts),
        }
        report = store.get("atpg", store_key)
        if report is MISS:
            engine = AtpgEngine(result.transformed.netlist, opts)
            report = engine.run()
            store.put("atpg", store_key, report)
        else:
            with span("atpg.store", mut=result.mut.path):
                counter("atpg.report_store_hits").inc()
            _log.info("atpg_store_hit", mut=result.mut.path,
                      detected=report.detected, faults=report.total_faults)
        return report
