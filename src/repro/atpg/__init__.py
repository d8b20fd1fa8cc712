"""ATPG substrate: stuck-at fault model, fault simulation and test generation.

Stands in for the commercial sequential ATPG tool of the paper.  Provides:

- a five-valued (0, 1, X, D, D') D-algebra (:mod:`repro.atpg.values`),
- three-valued good-machine simulation (:mod:`repro.atpg.simulator`),
- a collapsed single-stuck-at fault list (:mod:`repro.atpg.faults`),
- parallel-fault sequential fault simulation (:mod:`repro.atpg.fault_sim`),
- PODEM with backtrack limits (:mod:`repro.atpg.podem`),
- time-frame-expansion sequential ATPG (:mod:`repro.atpg.sequential`),
- a driver producing coverage / efficiency / CPU-time reports
  (:mod:`repro.atpg.engine`),
- SCOAP testability measures (:mod:`repro.atpg.scoap`).
"""

from repro.atpg.values import V0, V1, VX, VD, VDBAR
from repro.atpg.faults import Fault, build_fault_list
from repro.atpg.simulator import LogicSimulator
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.podem import Podem, PodemResult
from repro.atpg.sequential import UnrolledModel
from repro.atpg.engine import AtpgEngine, AtpgOptions, AtpgReport, SequentialAtpg
from repro.atpg.scoap import scoap_measures, ScoapMeasures
from repro.atpg.vectors import Test, TestSet

__all__ = [
    "V0",
    "V1",
    "VX",
    "VD",
    "VDBAR",
    "Fault",
    "build_fault_list",
    "LogicSimulator",
    "FaultSimulator",
    "Podem",
    "PodemResult",
    "UnrolledModel",
    "SequentialAtpg",
    "AtpgEngine",
    "AtpgOptions",
    "AtpgReport",
    "scoap_measures",
    "ScoapMeasures",
    "Test",
    "TestSet",
]
