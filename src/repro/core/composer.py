"""Constraint composition with cross-MUT reuse (paper Section 2.2).

A :class:`ConstraintComposer` owns one compositional extractor whose task
cache persists across module-under-test extractions: constraints computed at
higher hierarchy levels for one MUT (e.g. the decode table's opcode cone)
are reused verbatim for the next MUT.  This is the mechanism behind the
lower extraction times of Table 3 relative to Table 2.  The reuse goes on
past extraction: MUTs whose transformed modules S' + M come out identical
share one synthesis (:func:`~repro.core.transform.build_transformed_module`).

On top of the in-process task cache sits the persistent artifact store
(:mod:`repro.store`): finished extraction results and transformed modules
are published keyed by the design fingerprint, MUT and mode, so the reuse
economy survives across processes — a warm CLI run, benchmark row or
``--jobs`` worker loads the artifact instead of re-running the J/P worklist
and re-synthesizing S'.  Stored artifacts carry the timing fields of the
run that produced them, so reported extraction/synthesis seconds always
describe real (cold) work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.extractor import (
    ExtractionMode,
    ExtractionResult,
    FunctionalConstraintExtractor,
    MutSpec,
)
from repro.core.transform import (
    SynthMemo,
    TransformedModule,
    build_transformed_module,
)
from repro.hierarchy.design import Design
from repro.obs import counter, gauge, span
from repro.store import MISS, get_store


@dataclass
class ReuseStats:
    """Accounting of compositional reuse across extractions."""

    extractions: int = 0
    tasks_run: int = 0
    tasks_reused: int = 0
    store_hits: int = 0  # extractions satisfied by the persistent store

    @property
    def reuse_fraction(self) -> float:
        total = self.tasks_run + self.tasks_reused
        return self.tasks_reused / total if total else 0.0


class ConstraintComposer:
    """Extracts and composes constraints for a series of MUTs."""

    def __init__(self, design: Design,
                 mode: ExtractionMode = ExtractionMode.COMPOSE):
        self.design = design
        self.mode = mode
        self.extractor = FunctionalConstraintExtractor(design, mode)
        self.stats = ReuseStats()
        self._extractions: Dict[str, ExtractionResult] = {}
        self._transforms: Dict[Tuple[str, bool], TransformedModule] = {}
        # One synthesis per distinct S' + M: MUTs whose transformed
        # modules coincide share its netlist (build_transformed_module).
        self._synthesized: SynthMemo = {}

    def _store_key(self, mut: MutSpec,
                   do_optimize: Optional[bool] = None) -> Dict[str, object]:
        key: Dict[str, object] = {
            "design": self.design.fingerprint,
            "module": mut.module,
            "path": mut.path,
            "mode": self.mode.value,
        }
        if do_optimize is not None:
            key["do_optimize"] = do_optimize
        return key

    def extract(self, mut: MutSpec) -> ExtractionResult:
        key = mut.path
        if key not in self._extractions:
            store = get_store()
            store_key = self._store_key(mut)
            result = store.get("extract", store_key)
            if result is MISS:
                result = self.extractor.extract(mut)
                store.put("extract", store_key, result)
                self.stats.tasks_run += result.tasks_run
                self.stats.tasks_reused += result.tasks_reused
            else:
                with span("extract.store", mut=mut.path,
                          mode=self.mode.value):
                    self.stats.store_hits += 1
                    self.stats.tasks_reused += (result.tasks_run
                                                + result.tasks_reused)
            self.stats.extractions += 1
            self._extractions[key] = result
            counter("compose.extractions").inc()
            gauge("compose.reuse_fraction").set(
                round(self.stats.reuse_fraction, 4)
            )
        else:
            counter("compose.extraction_cache_hits").inc()
        return self._extractions[key]

    def transform(self, mut: MutSpec,
                  do_optimize: bool = True) -> TransformedModule:
        key = (mut.path, do_optimize)
        if key not in self._transforms:
            store = get_store()
            store_key = self._store_key(mut, do_optimize=do_optimize)
            transformed = store.get("transform", store_key)
            if transformed is MISS:
                extraction = self.extract(mut)
                transformed = build_transformed_module(
                    self.design, extraction, self.extractor,
                    do_optimize=do_optimize, synthesized=self._synthesized,
                )
                store.put("transform", store_key, transformed)
            else:
                with span("synth.store", mut=mut.path):
                    counter("compose.transform_store_hits").inc()
            self._transforms[key] = transformed
        return self._transforms[key]
